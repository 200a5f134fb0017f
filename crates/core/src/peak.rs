//! Analytical peak temperature of a synchronous thread rotation
//! (paper §IV, Eqs. 4–11, and the efficient Algorithm 1).
//!
//! Within one epoch the power map is constant, so the node state follows
//! the exact affine map of Eq. (4):
//!
//! ```text
//! T_{k+1} = T_ss(P_k) + e^{Cτ} (T_k − T_ss(P_k))
//! ```
//!
//! Composing δ epochs and letting the number of periods d → ∞, the
//! epoch-boundary states of the steady cycle become geometric series in
//! the eigenbasis of `C` (Eqs. 8–9, valid because every eigenvalue is
//! negative):
//!
//! ```text
//! z*_0[i] = Σ_e e^{(δ−1−e)λᵢτ} · (1 − e^{λᵢτ}) / (1 − e^{δλᵢτ}) · y_e[i]
//! ```
//!
//! with `y_e = V⁻¹·T_ss(P_e)` — exactly the content of paper Eq. (10).
//! The remaining boundary states follow from the one-epoch recurrence, so
//! the whole cycle costs `O(δ·N²)` after the one-time eigendecomposition
//! — the same design-time/run-time split as the paper's Algorithm 1 (the
//! paper evaluates each boundary independently at `O(δ·N²)` each; the
//! recurrence shaves a factor of δ and [`RotationPeakSolver::peak_reference`]
//! keeps the literal per-boundary form for cross-validation).
//!
//! # Numerical stability
//!
//! Every Eq.-(10) weight is evaluated by the single [`cycle_weight`]
//! helper, directly from `λᵢτ` and via `expm1`. Deriving `λτ` by
//! round-tripping through `ln(e^{λτ})`, or forming `1 − e^{λτ}` by
//! subtraction, loses all significance for slow eigenmodes (`|λτ| ≲ 1e-8`,
//! e.g. a large heat-sink capacitance) — the fast recurrence and the
//! literal reference form once did one each of those and drifted past
//! 1e-7 °C apart; sharing one helper makes such divergence structurally
//! impossible.
//!
//! # One kernel
//!
//! [`peak`](RotationPeakSolver::peak),
//! [`peak_celsius`](RotationPeakSolver::peak_celsius) and
//! [`peak_celsius_many`](RotationPeakSolver::peak_celsius_many) run one
//! kernel and differ only in how they reduce its rows; a single rotation
//! is a batch of one. The kernel stacks the candidates' epochs
//! into matrices (one contiguous row per epoch): one GEMM maps all powers
//! to eigen space, the per-candidate cycle recurrences fill a
//! boundary-state matrix, and a second GEMM produces every junction
//! temperature at once. Because the register-tiled [`Matrix::mul_matrix`]
//! accumulates each output element in ascending inner-index order — the
//! same order as scalar dot products — the results match the serial
//! per-boundary form bit for bit, so a candidate's peak does not depend
//! on the batch it was evaluated in. Decay data `e^{λτ}` is cached per τ.
//!
//! # Algorithm 2's probe, by superposition
//!
//! A [`ProbeSession`] answers the scheduler's and the design-space
//! oracle's one question, and [`peak_of_rings`] is a session of one
//! probe: the peak of a ring assignment, each occupied ring rotating
//! while the others contribute their ring-averaged power. The RC model
//! and Eqs. 8–10 are linear in power, so ring `q`'s junction `c` at the
//! end of epoch `k` of its steady cycle is
//!
//! ```text
//! T_q[k][c] = (B[c] + (idle − a_q)·g_q[c]) + x_q[k][c]
//! x_q[k]    = Σ_s (p_s − idle)·H_q[(k + s) mod δ_q]     (summed from zero)
//! B         = T_amb + Σ_p a_p·g_p                       (every ring p)
//! ```
//!
//! `a_p` is ring `p`'s time-averaged power (idle for an unoccupied ring;
//! a core in no ring draws idle), `g_p` the junctions' steady response to
//! one watt on each of ring `p`'s cores, that is ring `p`'s column sum of
//! a cached `cores × cores` steady-influence matrix, and `H_q`
//! (`δ_q × cores`, per ring and τ) the junction response at each epoch
//! boundary of the cycle in which one watt follows slot 0 around the
//! ring; slot `s`'s occupant runs the same cycle `s` epochs ahead, hence
//! the cyclic row index. IEEE addition is monotone, so
//! `max_k fl(b + x_k) = fl(b + max_k x_k)` and the ring's peak is
//! `max_c ((B[c] + (idle − a_q)·g_q[c]) + L_q[c])` with the ring-local
//! maxima `L_q[c] = max_k x_q[k][c]`. `L_q` depends only on ring `q`'s
//! slot powers and τ, so a session caches it and a cache hit returns the
//! bits a recomputation would: a trial that changes one ring costs that
//! ring's own sums plus an `O(rings·cores)` background. The operators are
//! built on first use by this module's own kernel and cached with the
//! basis, so every solver on it (N schedulers on clones of one cached
//! model) builds each once; the maxima are cached per session. All are
//! pure functions of the basis, the seats and τ, so building them counts
//! nothing and no checkpoint records them.
//! The sums run in one body compiled for AVX-512F, AVX2 and the portable
//! instruction set and dispatched at run time like
//! [`Matrix::mul_matrix`]; the three builds return the same bits. A
//! degraded solver, or a guard trip, builds the explicit epoch sequences
//! and runs them through the dense cycle instead.
//!
//! [`peak_of_rings`]: RotationPeakSolver::peak_of_rings

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hp_floorplan::CoreId;
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{Matrix, NumericalError, Vector};
use hp_thermal::{DenseStepper, ModalBasis, ModalDecay, ModalRuntime, RcThermalModel};

use crate::{EpochPowerSequence, HotPotatoError, Result, RingRotation};

/// Distinct ring sets, and distinct (ring set, τ) kernel blocks, one
/// basis caches. A scheduler probes one chip's rings at a handful of τ,
/// so the cap only guards against pathological churn: a full list is
/// cleared before the next insert, as the runtime's decay cache is.
const PROBE_CACHE_CAP: usize = 64;

/// The dense fallback's affine map `T ↦ M·T + S·f` over one epoch,
/// extracted once per epoch length from a [`DenseStepper`] and cached by
/// the solver's [`ModalRuntime`].
#[derive(Debug)]
pub struct DenseEpochMap {
    m: Matrix,
    s: Matrix,
}

impl DenseEpochMap {
    fn new(model: &RcThermalModel, tau: f64) -> Result<Self> {
        let (m, s) = DenseStepper::new(model, tau)?.epoch_map()?;
        Ok(DenseEpochMap { m, s })
    }
}

/// One steady-cycle weight of paper Eq. (10):
/// `e^{age·λτ} · (1 − e^{λτ}) / (1 − e^{δλτ})`.
///
/// Both the fast recurrence (via [`start_weights`]) and the literal
/// reference form ([`RotationPeakSolver::peak_reference`]) obtain their
/// weights here, so the two paths cannot drift apart numerically. `λτ`
/// must be the product `eigenvalue · τ` itself — never recovered from
/// `m.ln()` — and the complements come from `expm1`, never `1 − m`.
fn cycle_weight(lam_tau: f64, delta: usize, age: usize) -> f64 {
    cycle_weight_of(lam_tau, -f64::exp_m1(lam_tau), delta, age)
}

/// [`cycle_weight`] given its complement `one_minus_m = −expm1(λτ)`,
/// which [`ModalDecay::one_minus_m`] holds for every mode already. Age 0
/// skips `e^{0} = 1`, which multiplies exactly.
fn cycle_weight_of(lam_tau: f64, one_minus_m: f64, delta: usize, age: usize) -> f64 {
    debug_assert!(lam_tau <= 0.0, "stable modes only");
    let den = -f64::exp_m1(delta as f64 * lam_tau);
    if den < f64::MIN_POSITIVE {
        // δλτ underflowed expm1 entirely: every epoch weighs 1/δ.
        return 1.0 / delta as f64;
    }
    let aged = if age == 0 {
        1.0
    } else {
        (age as f64 * lam_tau).exp()
    };
    aged * one_minus_m / den
}

/// The Eq.-(10) weight `(1−m_i)/(1−m_i^δ)` of every mode's cycle start
/// state, [`cycle_weight`] at age 0.
fn start_weights(delta: usize, decay: &ModalDecay) -> Vec<f64> {
    decay
        .lam_dt
        .iter()
        .zip(decay.one_minus_m.iter())
        .map(|(&lam_tau, &one_minus_m)| cycle_weight_of(lam_tau, one_minus_m, delta, 0))
        .collect()
}

/// Steady-cycle start state in eigen coordinates (paper Eq. 10):
/// `z0[i] = Σ_e m_i^{δ−1−e} · (1−m_i)/(1−m_i^δ) · y_e[i]`, given the
/// cycle's [`start_weights`] and its `δ` steady states `ys`. Every mode
/// sums its epochs backwards, `e = δ−1 … 0`, building `m^{δ−1−e}` as it
/// goes; the modes advance side by side, one epoch at a time.
fn cycle_start(weights: &[f64], decay: &ModalDecay, ys: &[&[f64]]) -> Vector {
    let mut acc = vec![0.0; weights.len()];
    let mut pow = vec![1.0; weights.len()];
    for y in ys.iter().rev() {
        let terms = pow.iter_mut().zip(decay.m.iter()).zip(y.iter());
        for (a, ((p, &m), &y)) in acc.iter_mut().zip(terms) {
            *a += *p * y;
            *p *= m;
        }
    }
    Vector::from_fn(weights.len(), |i| weights[i] * acc[i])
}

/// The result of a peak-temperature analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakReport {
    /// Hottest junction temperature over the steady cycle, °C.
    pub peak_celsius: f64,
    /// The junction that reaches the peak.
    pub critical_core: CoreId,
    /// The epoch boundary (0-based, end of epoch `e`) where the peak occurs.
    pub critical_epoch: usize,
    /// Junction temperatures at every epoch boundary of the steady cycle.
    pub boundary_temps: Vec<Vector>,
}

/// The kernel's output for a batch of candidate rotations.
struct Cycles {
    /// Junction temperatures (°C), one row per epoch boundary of each
    /// candidate's steady cycle, candidate after candidate.
    temps: Matrix,
    /// Each candidate's hottest junction over its rows, °C.
    peaks: Vec<f64>,
}

impl Cycles {
    /// Reduces `temps`, `δ` rows per candidate of `seqs`.
    fn new(temps: Matrix, seqs: &[EpochPowerSequence]) -> Self {
        let mut next = 0;
        let peaks = seqs
            .iter()
            .map(|seq| {
                let rows = next..next + seq.delta();
                next = rows.end;
                rows.flat_map(|r| temps.row(r))
                    .fold(f64::NEG_INFINITY, |peak, &v| peak.max(v))
            })
            .collect();
        Cycles { temps, peaks }
    }
}

/// `row += w·x`, element by element.
#[inline(always)]
fn axpy(row: &mut [f64], w: f64, x: &[f64]) {
    for (r, &v) in row.iter_mut().zip(x) {
        *r += w * v;
    }
}

/// The hottest of `values`, `−∞` for none. Eight independent lanes, then
/// once over the lanes: `max` rounds nothing, so the grouping changes no
/// value, and no serial chain runs through every element.
#[inline(always)]
fn hottest(values: &[f64]) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; 8];
    let mut chunks = values.chunks_exact(lanes.len());
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = lane.max(v);
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = lane.max(v);
    }
    lanes.iter().fold(f64::NEG_INFINITY, |peak, &v| peak.max(v))
}

/// The probe's steady-state operator: every junction's steady
/// temperature as an affine function of the per-core power map.
#[derive(Debug)]
struct SteadyInfluence {
    /// `Gᵀ` (`cores × cores`): row `j` holds every junction's
    /// steady-state rise per watt on core `j`, °C/W.
    per_watt: Matrix,
    /// The junctions' steady state at zero power, °C.
    ambient: Vec<f64>,
}

impl SteadyInfluence {
    /// Writes the junction steady state under the per-core power map
    /// `watts` (W) to `t`, °C.
    #[inline(always)]
    fn junctions(&self, watts: &[f64], t: &mut [f64]) {
        t.copy_from_slice(&self.ambient);
        let rows = self.per_watt.as_slice().chunks_exact(t.len());
        for (&w, per_watt) in watts.iter().zip(rows) {
            axpy(t, w, per_watt);
        }
    }

    /// The junctions' steady rise, °C/W, with one watt on each of
    /// `cores`: their rows of `Gᵀ` summed from zero, in the given order.
    fn response(&self, cores: impl Iterator<Item = usize>) -> Vec<f64> {
        let mut g = vec![0.0; self.ambient.len()];
        for c in cores {
            axpy(&mut g, 1.0, self.per_watt.row(c));
        }
        g
    }
}

/// The operators of one set of rings, in the order a probe lists them.
#[derive(Debug)]
struct RingSet {
    /// Every ring's cores in rotation order, ring after ring.
    cores: Vec<CoreId>,
    /// Each ring's slot count δ.
    lens: Vec<usize>,
    /// Every ring's steady response `g`, °C/W, one value per junction,
    /// ring after ring: the junctions' rise with one watt on each of the
    /// ring's cores, its rows of `Gᵀ` summed from zero in rotation order.
    /// It does not depend on τ.
    responses: Vec<f64>,
    /// The same response of the cores in no ring; empty when the rings
    /// cover the chip.
    rest: Vec<f64>,
}

impl RingSet {
    /// Whether `rings` are this set's rings, in order.
    fn holds<T: Copy + PartialEq>(&self, rings: &[RingRotation<T>]) -> bool {
        let mut first = 0;
        self.lens.len() == rings.len()
            && rings.iter().zip(&self.lens).all(|(ring, &len)| {
                first += len;
                ring.cores() == &self.cores[first - len..first]
            })
    }
}

/// The probe's cached operators.
#[derive(Debug, Default)]
struct ProbeOperators {
    steady: Option<Arc<SteadyInfluence>>,
    sets: Vec<Arc<RingSet>>,
    /// `(set, τ.to_bits(), H)`: every ring's unit-watt rotation kernel
    /// at τ, `Σδ × cores`, ring after ring. Ring `q`'s `δ` rows are its
    /// `H`: row `k` holds every junction's response, °C/W, at the end of
    /// epoch `k` of the steady cycle in which one watt follows slot 0
    /// around the ring (on slot `e`'s core in epoch `e`). Holding the set
    /// keeps its address from naming another set.
    kernels: Vec<(Arc<RingSet>, u64, Arc<Matrix>)>,
}

impl ProbeOperators {
    fn kernels(&self, set: &Arc<RingSet>, tau: f64) -> Option<Arc<Matrix>> {
        self.kernels
            .iter()
            .find(|(s, t, _)| Arc::ptr_eq(s, set) && *t == tau.to_bits())
            .map(|(_, _, h)| Arc::clone(h))
    }
}

/// The probe's operator cache behind one mutex. It is the basis's
/// [`cache`](ModalBasis::cache), so every solver on the basis (clones,
/// solvers of the model's clones, the oracle's scoped threads) shares
/// it. It is locked for lookups and inserts only, never while an
/// operator is built, and never together with the runtime's ledger.
/// Two solvers that build the same operator at once keep the first
/// one inserted.
#[derive(Debug, Default)]
struct ProbeCache(Mutex<ProbeOperators>);

impl ProbeCache {
    /// Locks the cache. A poisoned lock only means another thread
    /// panicked mid-update; every entry is an immutable `Arc`.
    fn lock(&self) -> MutexGuard<'_, ProbeOperators> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One ring of a [`ProbeSession`].
#[derive(Debug)]
struct SessionRing {
    /// Where the ring's cores, slots and kernel rows start in the ring
    /// set's and the session's lists.
    first: usize,
    /// The ring's slot count δ.
    len: usize,
    /// The current probe's time-averaged power on each of the ring's
    /// cores, W: the occupants' sum in slot order, then the free slots
    /// at idle, over δ; idle for an unoccupied ring.
    average: f64,
    /// Whether the current probe seats a thread on the ring.
    occupied: bool,
    /// The ring's most recently cached maxima, heading a chain through
    /// [`CachedMaxima::prev`].
    latest: Option<usize>,
    /// The cached maxima the ring was last priced with.
    current: Option<usize>,
}

/// The ring-local maxima of one ring at one set of slot powers and τ.
#[derive(Debug)]
struct CachedMaxima {
    /// `τ.to_bits()`.
    tau: u64,
    /// [`key_hash`] of the slot powers and τ.
    hash: u64,
    /// Where the ring's slot powers (bits, δ of them) start in
    /// [`ProbeSession::keys`].
    key: usize,
    /// Where `L` (one value per junction) starts in
    /// [`ProbeSession::maxima`].
    at: usize,
    /// The same ring's previously cached maxima.
    prev: Option<usize>,
}

/// One occupied ring of the probe being priced.
#[derive(Debug, Clone, Copy)]
struct Priced {
    ring: usize,
    /// Where its `L` starts in [`ProbeSession::maxima`].
    at: usize,
    /// On a cache miss, the index in [`ProbeSession::kernels`] of the
    /// τ whose kernel of this ring fills `L`, and the key's
    /// [`key_hash`]; `None` on a hit.
    fill: Option<(usize, u64)>,
}

/// A run of Algorithm-2 probes over one set of rings: the HotPotato
/// scheduler keeps one and empties it at the start of every scheduling
/// hook, and [`peak_of_rings`](RotationPeakSolver::peak_of_rings) is a
/// session of one probe.
///
/// [`RotationPeakSolver::session`] resolves the steady-influence matrix
/// and every ring's steady response, which the solvers on one basis
/// build once per set of rings, checking then that the rings are valid.
/// Each
/// [`peak`](Self::peak) then reads the rings' current seats, resolves
/// every ring's kernel at a τ the first time the session needs one, and
/// caches each occupied ring's ring-local maxima under that ring's slot
/// powers and τ, so a probe re-sums only the rings whose seats changed
/// since the session last priced them (module docs). The session keeps
/// every set of maxima it computes until it is emptied or dropped: a
/// hook's probes are few, and the rotation moves every seat between
/// hooks.
///
/// # Example
///
/// ```
/// use hp_floorplan::GridFloorplan;
/// use hp_thermal::{RcThermalModel, ThermalConfig};
/// use hotpotato::{RingRotation, RotationPeakSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fp = GridFloorplan::new(4, 4)?;
/// let solver = RotationPeakSolver::new(RcThermalModel::new(&fp, &ThermalConfig::default())?)?;
/// let mut rings: Vec<RingRotation<f64>> = fp
///     .amd_rings()
///     .iter()
///     .map(|r| RingRotation::new(r.cores().to_vec()))
///     .collect();
/// rings[1].occupy(0, 4.0);
/// let mut session = solver.session(&rings, 0.3)?;
/// // A trial: one more thread on the centre ring, priced, then undone.
/// rings[0].occupy(0, 7.0);
/// let trial = session.peak(&solver, &rings, |w| w, 0.5e-3, true)?;
/// rings[0].remove(7.0);
/// let base = session.peak(&solver, &rings, |w| w, 0.5e-3, true)?;
/// assert!(base < trial);
/// let one = solver.peak_of_rings(&rings, |w| w, 0.3, 0.5e-3, true)?;
/// assert_eq!(base.to_bits(), one.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProbeSession {
    /// The basis of the solver that opened the session; a probe through
    /// a solver on another basis is refused.
    basis: Arc<ModalBasis>,
    steady: Arc<SteadyInfluence>,
    /// Idle-core power, W.
    idle: f64,
    set: Arc<RingSet>,
    rings: Vec<SessionRing>,
    /// `(τ.to_bits(), every ring's kernel)` for every τ at which the
    /// session resolved the rings' kernels.
    kernels: Vec<(u64, Arc<Matrix>)>,
    /// The current probe's slot powers, W, ring after ring in slot
    /// order; a free slot draws idle.
    slots: Vec<f64>,
    /// Every cached entry's slot powers, as bits.
    keys: Vec<u64>,
    /// Every cached entry's `L`, one value per junction, °C.
    maxima: Vec<f64>,
    entries: Vec<CachedMaxima>,
    /// The current probe's occupied rings, in ring order.
    priced: Vec<Priced>,
    /// Two core-length rows.
    scratch: Vec<f64>,
    /// The current probe's per-ring peaks, °C, or the pinned map's one.
    peaks: Vec<f64>,
}

impl ProbeSession {
    /// The probe of [`peak_of_rings`](RotationPeakSolver::peak_of_rings)
    /// through this session: the hottest junction temperature, °C, of
    /// the seats `rings` hold now, an occupant of type `T` drawing
    /// `watts(occupant)` W and a free slot the session's idle power, with
    /// every occupied ring rotating at epoch length `tau` (s) if
    /// `rotating`. `solver` must be the solver that opened the session,
    /// or a clone of it, and `rings` the session's rings in their current
    /// occupancy. Equal seats and τ give the same bits in any session.
    ///
    /// # Errors
    ///
    /// * [`HotPotatoError::InvalidParameter`] if `tau` is not positive
    ///   and finite.
    /// * [`HotPotatoError::InvalidAssignment`] if `rings` are not the
    ///   session's rings, in order, or `solver` works on another basis.
    /// * [`HotPotatoError::Linalg`] if an occupant's power or a ring's
    ///   average is not finite.
    /// * Propagated solver errors.
    ///
    /// A rejected probe is not counted.
    pub fn peak<T: Copy + PartialEq>(
        &mut self,
        solver: &RotationPeakSolver,
        rings: &[RingRotation<T>],
        watts: impl Fn(T) -> f64,
        tau: f64,
        rotating: bool,
    ) -> Result<f64> {
        if !(tau.is_finite() && tau > 0.0) {
            return Err(HotPotatoError::InvalidParameter {
                name: "tau",
                value: tau,
            });
        }
        self.read(solver, rings, watts)?;
        let occupied = self.rings.iter().filter(|r| r.occupied).count();
        let cycles = if rotating { occupied } else { 0 };
        let healthy = {
            let mut ledger = solver.runtime.lock();
            if cycles > 0 {
                ledger.count_batch(cycles);
            }
            !ledger.degraded()
        };
        // Pinned, or with no ring occupied, the probe is one steady state.
        let rotating = cycles > 0;
        if healthy {
            if rotating {
                self.price(solver, tau)?;
            }
            self.run(rotating);
            let ambient = solver.model.config().ambient;
            if !solver
                .runtime
                .lock()
                .guard(ambient, self.peaks.iter().copied())
            {
                return Ok(hottest(&self.peaks));
            }
        }
        let seqs = self.sequences(tau, rotating)?;
        Ok(hottest(&solver.steady_cycles(&seqs, false)?.peaks))
    }

    /// Forgets every cached set of ring-local maxima, keeping the
    /// resolved operators and the buffers' capacity.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.maxima.clear();
        self.entries.clear();
        for ring in &mut self.rings {
            ring.latest = None;
            ring.current = None;
        }
    }

    /// The cores of ring `q`.
    fn ring_cores(&self, q: usize) -> &[CoreId] {
        let ring = &self.rings[q];
        &self.set.cores[ring.first..ring.first + ring.len]
    }

    /// Reads every slot's power, `watts` of its occupant or idle, and
    /// every ring's average, after checking that `rings` and `solver`
    /// are the session's.
    fn read<T: Copy + PartialEq>(
        &mut self,
        solver: &RotationPeakSolver,
        rings: &[RingRotation<T>],
        watts: impl Fn(T) -> f64,
    ) -> Result<()> {
        let same =
            std::ptr::eq(Arc::as_ptr(&self.basis), solver.runtime.basis()) && self.set.holds(rings);
        if !same {
            return Err(HotPotatoError::InvalidAssignment(
                "the probe's rings or solver are not its session's",
            ));
        }
        let idle = self.idle;
        self.slots.clear();
        let mut finite = true;
        for (ring, state) in rings.iter().zip(&mut self.rings) {
            let first = self.slots.len();
            let capacity = ring.capacity();
            self.slots
                .extend((0..capacity).map(|s| ring.occupant(s).map_or(idle, &watts)));
            // The occupants' sum in slot order, then the free slots at
            // idle: the average the explicit sequences always used.
            let occupied = ring.occupants();
            state.occupied = occupied > 0;
            state.average = if state.occupied {
                let sum: f64 = (0..capacity)
                    .filter(|&s| ring.occupant(s).is_some())
                    .map(|s| self.slots[first + s])
                    .sum();
                (sum + (capacity - occupied) as f64 * idle) / capacity as f64
            } else {
                idle
            };
            finite &= state.average.is_finite();
        }
        if !(finite && self.slots.iter().all(|p| p.is_finite())) {
            return Err(HotPotatoError::Linalg(
                NumericalError::NonFinite {
                    what: "epoch power map",
                }
                .into(),
            ));
        }
        Ok(())
    }

    /// The cached entry of ring `q`'s maxima at its current slot powers
    /// and τ (bits): the entry the ring was last priced with, else the
    /// newest match; on a miss, the key's [`key_hash`].
    fn cached(&self, q: usize, tau: u64) -> std::result::Result<usize, u64> {
        let ring = &self.rings[q];
        let slots = &self.slots[ring.first..ring.first + ring.len];
        let same = |entry: &CachedMaxima| {
            let key = &self.keys[entry.key..entry.key + ring.len];
            entry.tau == tau && key.iter().zip(slots).all(|(&k, p)| k == p.to_bits())
        };
        if let Some(i) = ring.current.filter(|&i| same(&self.entries[i])) {
            return Ok(i);
        }
        let hash = key_hash(slots, tau);
        let mut next = ring.latest;
        while let Some(i) = next {
            let entry = &self.entries[i];
            if entry.hash == hash && same(entry) {
                return Ok(i);
            }
            next = entry.prev;
        }
        Err(hash)
    }

    /// Lists the occupied rings of a rotating probe at `tau` (s) with
    /// where their maxima are cached, resolves the kernel of each ring
    /// whose maxima are not, and makes room for those maxima in the
    /// cache, at −∞. The body fills that room before anything reads it.
    fn price(&mut self, solver: &RotationPeakSolver, tau: f64) -> Result<()> {
        let bits = tau.to_bits();
        self.priced.clear();
        for q in 0..self.rings.len() {
            if !self.rings[q].occupied {
                continue;
            }
            let priced = match self.cached(q, bits) {
                Ok(entry) => {
                    self.rings[q].current = Some(entry);
                    Priced {
                        ring: q,
                        at: self.entries[entry].at,
                        fill: None,
                    }
                }
                Err(hash) => {
                    let known = self.kernels.iter().position(|&(t, _)| t == bits);
                    let block = match known {
                        Some(block) => block,
                        None => {
                            let kernels = solver.rotation_kernels(&self.set, tau)?;
                            self.kernels.push((bits, kernels));
                            self.kernels.len() - 1
                        }
                    };
                    Priced {
                        ring: q,
                        at: 0,
                        fill: Some((block, hash)),
                    }
                }
            };
            self.priced.push(priced);
        }
        let junctions = self.steady.ambient.len();
        for priced in &mut self.priced {
            let Some((_, hash)) = priced.fill else {
                continue;
            };
            let ring = &mut self.rings[priced.ring];
            priced.at = self.maxima.len();
            self.maxima.resize(priced.at + junctions, f64::NEG_INFINITY);
            let key = self.keys.len();
            let slots = &self.slots[ring.first..ring.first + ring.len];
            self.keys.extend(slots.iter().map(|p| p.to_bits()));
            self.entries.push(CachedMaxima {
                tau: bits,
                hash,
                key,
                at: priced.at,
                prev: ring.latest,
            });
            ring.latest = Some(self.entries.len() - 1);
            ring.current = ring.latest;
        }
        Ok(())
    }

    /// Fills [`Self::peaks`]: [`Self::body`] compiled for the widest
    /// instruction set this CPU has, checked in [`Matrix::mul_matrix`]'s
    /// order (AVX-512F, AVX2, then the portable build, which Miri always
    /// takes).
    fn run(&mut self, rotating: bool) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the avx512f requirement was just checked.
                unsafe { probe_avx512(self, rotating) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the avx2 requirement was just checked.
                unsafe { probe_avx2(self, rotating) };
                return;
            }
        }
        self.body(rotating);
    }

    /// The probe's sums and maxima (module docs) into [`Self::peaks`]:
    /// `rotating`, the ring-local maxima of every ring [`Self::price`]
    /// left to fill, the background and one peak per occupied ring;
    /// otherwise the pinned map's one peak. Every element is a lane-wise
    /// IEEE multiply, then add, in the same order whatever the build, so
    /// every compilation returns the same bits.
    #[inline(always)]
    fn body(&mut self, rotating: bool) {
        let ProbeSession {
            steady,
            idle,
            set,
            rings,
            kernels,
            slots,
            maxima,
            priced,
            scratch,
            peaks,
            ..
        } = self;
        let (idle, junctions) = (*idle, steady.ambient.len());
        let (row, background) = scratch.split_at_mut(junctions);
        peaks.clear();
        if !rotating {
            pinned_map(&set.cores, slots, idle, row);
            steady.junctions(row, background);
            peaks.push(hottest(background));
            return;
        }
        for p in priced.iter() {
            let (Some((block, _)), ring) = (p.fill, &rings[p.ring]) else {
                continue;
            };
            let delta = ring.len;
            let h = &kernels[block].1.as_slice()
                [ring.first * junctions..(ring.first + delta) * junctions];
            let ring_slots = &slots[ring.first..ring.first + delta];
            let top = &mut maxima[p.at..p.at + junctions];
            for k in 0..delta {
                row.fill(0.0);
                for (s, &power) in ring_slots.iter().enumerate() {
                    let w = power - idle;
                    if w != 0.0 {
                        // (k + s) mod δ, as k and s are both below δ.
                        let r = if k + s < delta { k + s } else { k + s - delta };
                        axpy(row, w, &h[r * junctions..(r + 1) * junctions]);
                    }
                }
                for (t, &v) in top.iter_mut().zip(&*row) {
                    *t = t.max(v);
                }
            }
        }
        background.copy_from_slice(&steady.ambient);
        let responses = set.responses.chunks_exact(junctions);
        for (ring, response) in rings.iter().zip(responses) {
            axpy(background, ring.average, response);
        }
        axpy(background, idle, &set.rest);
        for p in priced.iter() {
            let own = idle - rings[p.ring].average;
            let response = &set.responses[p.ring * junctions..(p.ring + 1) * junctions];
            let local = &maxima[p.at..p.at + junctions];
            let terms = background.iter().zip(response).zip(local);
            for (t, ((&b, &g), &l)) in row.iter_mut().zip(terms) {
                *t = (b + own * g) + l;
            }
            peaks.push(hottest(row));
        }
    }

    /// The current probe as explicit epoch sequences: `rotating`, one
    /// rotation per occupied ring over the background (occupants
    /// shifted by `e` slots in epoch `e`); otherwise the single epoch of
    /// the pinned map over `max(τ, 1 µs)`.
    fn sequences(&self, tau: f64, rotating: bool) -> Result<Vec<EpochPowerSequence>> {
        let mut power = vec![self.idle; self.steady.ambient.len()];
        if !rotating {
            pinned_map(&self.set.cores, &self.slots, self.idle, &mut power);
            return Ok(vec![EpochPowerSequence::new(
                tau.max(1e-6),
                vec![Vector::from(power)],
            )?]);
        }
        for (q, ring) in self.rings.iter().enumerate() {
            for c in self.ring_cores(q) {
                power[c.index()] = ring.average;
            }
        }
        let background = Vector::from(power);
        (0..self.rings.len())
            .filter(|&q| self.rings[q].occupied)
            .map(|q| {
                let (cores, ring) = (self.ring_cores(q), &self.rings[q]);
                let slots = &self.slots[ring.first..ring.first + ring.len];
                let delta = ring.len;
                let epochs = (0..delta)
                    .map(|e| {
                        let mut p = background.clone();
                        for (s, &w) in slots.iter().enumerate() {
                            p[cores[(s + e) % delta].index()] = w;
                        }
                        p
                    })
                    .collect();
                EpochPowerSequence::new(tau, epochs)
            })
            .collect()
    }
}

/// A digest of a ring's slot powers and `τ.to_bits()`, so that a lookup
/// compares the keys of few cached entries.
fn key_hash(slots: &[f64], tau: u64) -> u64 {
    slots.iter().fold(tau, |h, p| {
        (h.rotate_left(5) ^ p.to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Writes the power map with every slot's power on its core and idle
/// elsewhere to `power`, W.
#[inline(always)]
fn pinned_map(cores: &[CoreId], slots: &[f64], idle: f64, power: &mut [f64]) {
    power.fill(idle);
    for (c, &w) in cores.iter().zip(slots) {
        power[c.index()] = w;
    }
}

/// [`ProbeSession::body`] compiled with AVX2 codegen. Lane-wise IEEE
/// mul/add only (rustc does not contract to FMA), so the results are
/// bit-identical to the portable build's.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2, e.g. via
/// `is_x86_feature_detected!("avx2")` — executing the AVX2-encoded body
/// on a CPU without it is undefined behaviour (illegal instruction at
/// best). The body itself is safe Rust: every slice access is
/// bounds-checked and no pointers are formed.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn probe_avx2(session: &mut ProbeSession, rotating: bool) {
    session.body(rotating);
}

/// [`ProbeSession::body`] compiled with AVX-512F codegen; bit-identical
/// results, as for [`probe_avx2`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F, e.g. via
/// `is_x86_feature_detected!("avx512f")`; see [`probe_avx2`] — the same
/// contract applies, with AVX-512F in place of AVX2.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn probe_avx512(session: &mut ProbeSession, rotating: bool) {
    session.body(rotating);
}

/// Computes steady-cycle peak temperatures for rotations on a fixed
/// thermal model.
///
/// Construction takes the model's [`basis`](RcThermalModel::basis): the
/// *design-time phase* of Algorithm 1 (the eigendecomposition of
/// `C = −A⁻¹B`), paid once per model and its clones. Each
/// [`peak`](RotationPeakSolver::peak) call is then the *run-time
/// phase* — tens of microseconds for a 64-core chip, matching the paper's
/// 23.76 µs overhead measurement. Batches of candidates go through
/// [`peak_celsius_many`](RotationPeakSolver::peak_celsius_many), which
/// shares its work across candidates via two GEMMs.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone)]
pub struct RotationPeakSolver {
    model: RcThermalModel,
    /// The model's basis — `projᵀ` maps per-core power straight to the
    /// eigen-space steady state (`y = P·projᵀ + y_amb`, one thin GEMM row
    /// per epoch instead of a linear solve), `V_Jᵀ` reads junction
    /// temperatures back out, and its trust verdict arms the dense
    /// fallback — plus this solver's per-τ decay and dense epoch-map
    /// caches, envelope guard and tallies.
    runtime: ModalRuntime<DenseEpochMap>,
    /// The Algorithm-2 probe's steady-influence matrix and rotation
    /// kernels, built on first use and shared with every solver on the
    /// basis.
    probe: Arc<ProbeCache>,
}

impl RotationPeakSolver {
    /// Builds the solver on the model's
    /// [`basis`](RcThermalModel::basis). That is the design-time phase,
    /// one eigendecomposition, unless a solver of this model or of a
    /// clone of it has already paid for it: a clone of a cached model
    /// builds for free.
    ///
    /// # Errors
    ///
    /// Propagates eigendecomposition failures.
    pub fn new(model: RcThermalModel) -> Result<Self> {
        let basis = Arc::clone(model.basis()?);
        Ok(RotationPeakSolver {
            probe: basis.cache(),
            model,
            runtime: ModalRuntime::new(basis),
        })
    }

    /// Whether peak evaluations currently route through the dense cycle
    /// fallback instead of the Algorithm-1 eigen path — either because
    /// the eigendecomposition failed its construction-time trust checks
    /// or because a runtime invariant guard tripped (sticky).
    pub fn degraded(&self) -> bool {
        self.runtime.degraded()
    }

    /// The solver's caches (decay data and dense epoch maps per τ),
    /// envelope guard and tallies.
    pub fn runtime(&self) -> &ModalRuntime<DenseEpochMap> {
        &self.runtime
    }

    /// The thermal model the solver was built for.
    pub fn model(&self) -> &RcThermalModel {
        &self.model
    }

    /// Rejects a sequence whose core count differs from the model's or
    /// whose epoch power is non-finite: a NaN power map would propagate
    /// silently through both the eigen and the dense path, so it is named
    /// up front instead.
    fn validate_seq(&self, seq: &EpochPowerSequence) -> Result<()> {
        if seq.core_count() != self.model.core_count() {
            return Err(HotPotatoError::InvalidSequence(
                "power vectors do not match the model's core count",
            ));
        }
        for e in 0..seq.delta() {
            if seq.epoch(e).iter().any(|v| !v.is_finite()) {
                return Err(HotPotatoError::Linalg(
                    NumericalError::NonFinite {
                        what: "epoch power map",
                    }
                    .into(),
                ));
            }
        }
        Ok(())
    }

    /// Algorithm 1's run-time phase over a batch of candidate rotations,
    /// at every epoch boundary of their steady cycles: the kernel of every
    /// peak entry point. `tally` counts the call as a batch, after the
    /// candidates validate.
    ///
    /// A healthy solver runs [`Self::modal_cycles`] and passes the
    /// per-candidate peaks through the runtime's envelope guard; a
    /// degraded solver, or a trip, computes every candidate with
    /// [`Self::dense_cycle`] instead, and the dense result is
    /// authoritative.
    fn steady_cycles(&self, seqs: &[EpochPowerSequence], tally: bool) -> Result<Cycles> {
        for seq in seqs {
            self.validate_seq(seq)?;
        }
        let decays: Option<Vec<_>> = {
            let mut ledger = self.runtime.lock();
            if tally {
                ledger.count_batch(seqs.len());
            }
            (!ledger.degraded()).then(|| seqs.iter().map(|seq| ledger.decay(seq.tau())).collect())
        };
        if let Some(decays) = decays {
            let cycles = Cycles::new(self.modal_cycles(seqs, &decays)?, seqs);
            let ambient = self.model.config().ambient;
            let tripped = self
                .runtime
                .lock()
                .guard(ambient, cycles.peaks.iter().copied());
            if !tripped {
                return Ok(cycles);
            }
        }
        let mut rows = Vec::new();
        for seq in seqs {
            rows.extend(self.dense_cycle(seq)?);
        }
        let temps = Matrix::from_fn(rows.len(), self.model.core_count(), |r, c| rows[r][c]);
        Ok(Cycles::new(temps, seqs))
    }

    /// The eigen path of [`Self::steady_cycles`], given each candidate's
    /// decay data:
    ///
    /// 1. one `Pᵀ × projᵀ` GEMM maps every epoch of every candidate to
    ///    its eigen-space steady state (`Pᵀ` is `Σδ × cores`),
    /// 2. each candidate's cycle opens at its Eq.-(10) start state and
    ///    walks the recurrence `z ← m∘z + (1 − m)∘y` epoch by epoch,
    ///    writing every boundary state into a row of a shared
    ///    `Σδ × nodes` matrix,
    /// 3. one `Z × V_Jᵀ` GEMM yields every junction temperature at once.
    ///
    /// Transposing both GEMM operands leaves every dot product's terms
    /// and their ascending-`k` order unchanged, which is why the result is
    /// bit-identical to per-boundary `V_J·z` dot products.
    fn modal_cycles(
        &self,
        seqs: &[EpochPowerSequence],
        decays: &[Arc<ModalDecay>],
    ) -> Result<Matrix> {
        let deltas: Vec<usize> = seqs.iter().map(EpochPowerSequence::delta).collect();
        let mut p_t = Matrix::zeros(deltas.iter().sum(), self.model.core_count());
        let epochs = seqs.iter().flat_map(|s| (0..s.delta()).map(|e| s.epoch(e)));
        for (row, power) in epochs.enumerate() {
            p_t.row_mut(row).copy_from_slice(power.as_slice());
        }
        let y_t = self.runtime.basis().steady_modal(&p_t)?; // Σδ × nodes
        let ys: Vec<&[f64]> = (0..y_t.rows()).map(|r| y_t.row(r)).collect();
        self.relax_cycles(&ys, &deltas, decays)
    }

    /// Steps 2 and 3 of [`Self::modal_cycles`] on eigen-space steady
    /// states `all_ys`, `deltas[i]` of them for cycle `i`: the junction
    /// temperatures of every cycle's epoch boundaries, one row each.
    fn relax_cycles(
        &self,
        all_ys: &[&[f64]],
        deltas: &[usize],
        decays: &[Arc<ModalDecay>],
    ) -> Result<Matrix> {
        let nodes = self.model.node_count();
        let mut z_t = Matrix::zeros(all_ys.len(), nodes);
        let (mut first, mut row) = (0, 0);
        // Cycles of one δ over one decay share their start weights.
        let mut weights: Vec<(&Arc<ModalDecay>, usize, Vec<f64>)> = Vec::new();
        for (&delta, decay) in deltas.iter().zip(decays) {
            let ys = &all_ys[first..first + delta];
            first += delta;
            let known = weights
                .iter()
                .position(|(cached, d, _)| Arc::ptr_eq(cached, decay) && *d == delta);
            let w = match known {
                Some(w) => w,
                None => {
                    weights.push((decay, delta, start_weights(delta, decay)));
                    weights.len() - 1
                }
            };
            let mut z = cycle_start(&weights[w].2, decay, ys);
            for y in ys {
                let terms = decay.m.iter().zip(decay.one_minus_m.iter()).zip(y.iter());
                for (z, ((&m, &one_minus_m), &y)) in z.as_mut_slice().iter_mut().zip(terms) {
                    *z = m * *z + one_minus_m * y;
                }
                z_t.row_mut(row).copy_from_slice(z.as_slice());
                row += 1;
            }
        }
        Ok(z_t.mul_matrix(self.runtime.basis().v_junction_t())?) // Σδ × cores
    }

    /// Dense-fallback steady cycle: the junction temperatures at every
    /// epoch boundary (`δ` of them, in cycle order), with the cycle
    /// obtained from the backward-Euler map instead of the eigenbasis.
    ///
    /// Composing the per-epoch affine maps over one period gives
    /// `T_cycle = M_cyc·T + c_cyc`; the cycle's fixed point solves
    /// `(I − M_cyc)·T* = c_cyc` (unique because every mode of the
    /// A-stable map contracts), via an iteratively refined LU solve.
    /// Replaying one period from `T*` yields every boundary state.
    fn dense_cycle(&self, seq: &EpochPowerSequence) -> Result<Vec<Vector>> {
        let nodes = self.model.node_count();
        let tau = seq.tau();
        let map = self
            .runtime
            .lock()
            .dense(tau, || DenseEpochMap::new(&self.model, tau))?;
        let forcings: Vec<Vector> = (0..seq.delta())
            .map(|e| self.model.forcing(seq.epoch(e)))
            .collect::<std::result::Result<_, _>>()?;

        // One period as a single affine map: T ↦ M_cyc·T + c_cyc.
        let mut m_cyc = Matrix::identity(nodes);
        let mut c_cyc = Vector::zeros(nodes);
        for f in &forcings {
            m_cyc = map.m.mul_matrix(&m_cyc)?;
            c_cyc = &map.m.mul_vector(&c_cyc) + &map.s.mul_vector(f);
        }
        let i_minus = Matrix::from_fn(nodes, nodes, |i, j| {
            let id = if i == j { 1.0 } else { 0.0 };
            id - m_cyc[(i, j)]
        });
        let lu = i_minus.lu()?;
        let mut t = lu.solve_refined(&i_minus, &c_cyc)?;

        // Replay one period from the fixed point, recording boundaries.
        let mut boundaries = Vec::with_capacity(seq.delta());
        for f in &forcings {
            t = &map.m.mul_vector(&t) + &map.s.mul_vector(f);
            let cores = self.model.core_temperatures(&t);
            if cores.iter().any(|v| !v.is_finite()) {
                return Err(HotPotatoError::Linalg(
                    NumericalError::NonFinite {
                        what: "dense cycle boundary temperatures",
                    }
                    .into(),
                ));
            }
            boundaries.push(cores);
        }
        self.runtime.lock().count_fallback_steps(boundaries.len());
        Ok(boundaries)
    }

    /// Run-time phase: steady-cycle boundary temperatures and their peak
    /// for the rotation described by `seq`.
    ///
    /// # Errors
    ///
    /// * [`HotPotatoError::InvalidSequence`] if `seq` covers a different
    ///   number of cores than the model.
    /// * Propagated thermal/solver errors.
    pub fn peak(&self, seq: &EpochPowerSequence) -> Result<PeakReport> {
        let temps = self.steady_cycles(std::slice::from_ref(seq), false)?.temps;
        Ok(report_from_boundaries(
            (0..temps.rows())
                .map(|e| Vector::from(temps.row(e).to_vec()))
                .collect(),
        ))
    }

    /// Reference implementation of paper Eq. (10): every boundary state is
    /// assembled independently through explicit spectral-filter matrices,
    /// at `O(δ²N²)` — the complexity the paper quotes for Algorithm 1.
    /// Used to cross-validate [`peak`](RotationPeakSolver::peak) and to
    /// benchmark the recurrence against the literal form.
    ///
    /// # Errors
    ///
    /// Same as [`peak`](RotationPeakSolver::peak).
    pub fn peak_reference(&self, seq: &EpochPowerSequence) -> Result<f64> {
        self.validate_seq(seq)?;
        let delta = seq.delta();
        let nodes = self.model.node_count();
        let decay = self.runtime.lock().decay(seq.tau());
        // Steady states resolved through the linear solver — deliberately
        // *not* via the precomputed projection, so this path also
        // cross-validates it.
        let steady: Vec<Vector> = (0..delta)
            .map(|e| self.model.steady_state(seq.epoch(e)))
            .collect::<std::result::Result<_, _>>()?;

        let mut peak = f64::NEG_INFINITY;
        for k in 0..delta {
            // Boundary after epoch k: sum over the δ most recent epochs,
            // each filtered by the Eq.-(10) weight m^{age}(1−m)/(1−m^δ).
            let mut t_nodes = Vector::zeros(nodes);
            for age in 0..delta {
                // Epoch index whose steady state is `age` epochs old at
                // boundary k.
                let e = (k + delta - age) % delta;
                let filter = Vector::from_fn(nodes, |i| cycle_weight(decay.lam_dt[i], delta, age));
                let contrib = self.eigen().spectral_apply(&filter, &steady[e]);
                t_nodes += &contrib;
            }
            let cores = self.model.core_temperatures(&t_nodes);
            peak = peak.max(cores.max());
        }
        Ok(peak)
    }

    /// Run-time phase, peak only: the hottest junction of
    /// [`peak`](RotationPeakSolver::peak)'s report without building it —
    /// the HotPotato scheduler's single-candidate probe (tens of
    /// microseconds for the 64-core chip, the paper's 23.76 µs
    /// measurement).
    ///
    /// # Errors
    ///
    /// Same as [`peak`](RotationPeakSolver::peak).
    pub fn peak_celsius(&self, seq: &EpochPowerSequence) -> Result<f64> {
        Ok(self.steady_cycles(std::slice::from_ref(seq), false)?.peaks[0])
    }

    /// Batched run-time phase: the peak of every candidate rotation in
    /// `seqs`, agreeing with per-candidate
    /// [`peak_celsius`](RotationPeakSolver::peak_celsius) calls bit for
    /// bit. Stacking the candidates amortizes the two GEMMs and the
    /// per-τ decay lookups across the whole batch; this is the entry
    /// point of the scheduler's promotion/demotion probes and of the
    /// design-space oracle, and the only one counted in
    /// [`SolverStats::batch_calls`](hp_thermal::SolverStats::batch_calls).
    ///
    /// # Errors
    ///
    /// Same as [`peak`](RotationPeakSolver::peak), applied to every
    /// element of `seqs`; a rejected batch is not counted.
    pub fn peak_celsius_many(&self, seqs: &[EpochPowerSequence]) -> Result<Vec<f64>> {
        if seqs.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.steady_cycles(seqs, true)?.peaks)
    }

    /// Algorithm 2's probe: the hottest junction temperature, °C, of a
    /// ring assignment — the design-space oracle's one question to
    /// Algorithm 1, and a [`ProbeSession`] of one probe, so that it and
    /// the HotPotato scheduler's sessions price alike, bit for bit.
    ///
    /// Each ring lists its cores in rotation order; an occupant of type
    /// `T` draws `watts(occupant)` W and a free slot `idle_watts`. With
    /// `rotating`, every occupied ring rotates synchronously with epoch
    /// length `tau` (s) — slot `s`'s occupant on slot `(s + e) mod δ`'s
    /// core in epoch `e` — while every other ring contributes its
    /// time-averaged power on its own cores, and the result is the
    /// hottest of these per-ring steady cycles. Pinned (`!rotating`), or
    /// with no ring occupied, it is the steady state of every thread on
    /// its slot's core.
    ///
    /// A healthy solver evaluates the cycles by superposition — the
    /// background's steady state plus cached unit-watt rotation
    /// responses (module docs, DESIGN.md §6a) — agreeing with the
    /// explicit epoch sequences through
    /// [`peak_celsius_many`](Self::peak_celsius_many) within 1e-9 °C,
    /// and passes the per-ring peaks through the envelope guard. A
    /// degraded solver, or a trip, runs those explicit sequences through
    /// the dense cycle, with the explicit call's `numerics` tallies. A
    /// rotating probe with an occupied ring counts one batch of its
    /// occupied rings; no probe looks up decay data.
    ///
    /// # Errors
    ///
    /// * [`HotPotatoError::InvalidParameter`] if `tau` is not positive
    ///   and finite.
    /// * [`HotPotatoError::InvalidAssignment`] if a ring lists a core
    ///   outside the chip, or a core belongs to two rings.
    /// * [`HotPotatoError::Linalg`] if the idle power, an occupant's
    ///   power or a ring's average is not finite.
    /// * Propagated solver errors.
    ///
    /// A rejected probe is not counted.
    pub fn peak_of_rings<T: Copy + PartialEq>(
        &self,
        rings: &[RingRotation<T>],
        watts: impl Fn(T) -> f64,
        idle_watts: f64,
        tau: f64,
        rotating: bool,
    ) -> Result<f64> {
        self.session(rings, idle_watts)?
            .peak(self, rings, watts, tau, rotating)
    }

    /// Opens a [`ProbeSession`] over `rings` (each listing its cores in
    /// rotation order), a free slot drawing `idle_watts` W: checks that
    /// every core is on the chip and in one ring at most, and resolves
    /// the steady-influence matrix and every ring's steady response.
    /// The session then prices any occupancy of these rings.
    ///
    /// # Errors
    ///
    /// * [`HotPotatoError::InvalidAssignment`] if a ring lists a core
    ///   outside the chip, or a core belongs to two rings.
    /// * [`HotPotatoError::Linalg`] if `idle_watts` is not finite.
    /// * Propagated solver errors.
    pub fn session<T: Copy + PartialEq>(
        &self,
        rings: &[RingRotation<T>],
        idle_watts: f64,
    ) -> Result<ProbeSession> {
        let set = self.ring_set(rings)?;
        if !idle_watts.is_finite() {
            return Err(HotPotatoError::Linalg(
                NumericalError::NonFinite {
                    what: "epoch power map",
                }
                .into(),
            ));
        }
        let steady = self.steady_influence()?;
        let mut first = 0;
        let rings: Vec<SessionRing> = set
            .lens
            .iter()
            .map(|&len| {
                first += len;
                SessionRing {
                    first: first - len,
                    len,
                    average: idle_watts,
                    occupied: false,
                    latest: None,
                    current: None,
                }
            })
            .collect();
        let chip = self.model.core_count();
        Ok(ProbeSession {
            basis: Arc::clone(self.model.basis()?),
            idle: idle_watts,
            kernels: Vec::new(),
            slots: Vec::with_capacity(set.cores.len()),
            keys: Vec::with_capacity(set.cores.len()),
            maxima: Vec::with_capacity(rings.len() * chip),
            entries: Vec::with_capacity(rings.len()),
            priced: Vec::with_capacity(rings.len()),
            scratch: vec![0.0; 2 * chip],
            peaks: Vec::with_capacity(rings.len().max(1)),
            steady,
            set,
            rings,
        })
    }

    /// The probe's steady-influence operator, built on first use from
    /// the basis: `Gᵀ = projᵀ·V_Jᵀ` and the zero-power junction state
    /// `y_amb·V_Jᵀ`.
    fn steady_influence(&self) -> Result<Arc<SteadyInfluence>> {
        if let Some(steady) = self.probe.lock().steady.clone() {
            return Ok(steady);
        }
        let basis = self.runtime.basis();
        let y_amb = Matrix::from_fn(1, basis.node_count(), |_, i| basis.y_amb()[i]);
        let steady = Arc::new(SteadyInfluence {
            per_watt: basis.proj_t().mul_matrix(basis.v_junction_t())?,
            ambient: y_amb.mul_matrix(basis.v_junction_t())?.row(0).to_vec(),
        });
        Ok(Arc::clone(self.probe.lock().steady.get_or_insert(steady)))
    }

    /// The operators of `rings`, found among the cached ring sets under
    /// one lock of the probe cache; a new set is checked (every core on
    /// the chip and in one ring at most), summed from the
    /// steady-influence matrix outside the lock, and cached.
    fn ring_set<T: Copy + PartialEq>(&self, rings: &[RingRotation<T>]) -> Result<Arc<RingSet>> {
        let known = {
            let ops = self.probe.lock();
            ops.sets.iter().find(|set| set.holds(rings)).cloned()
        };
        if let Some(set) = known {
            return Ok(set);
        }
        let chip = self.model.core_count();
        let mut covered = vec![false; chip];
        for c in rings.iter().flat_map(RingRotation::cores) {
            match covered.get_mut(c.index()) {
                None => {
                    return Err(HotPotatoError::InvalidAssignment(
                        "a ring lists a core outside the chip",
                    ))
                }
                Some(true) => {
                    return Err(HotPotatoError::InvalidAssignment(
                        "a core belongs to more than one ring",
                    ))
                }
                Some(seen) => *seen = true,
            }
        }
        let steady = self.steady_influence()?;
        let rest = if covered.contains(&false) {
            steady.response((0..chip).filter(|&c| !covered[c]))
        } else {
            Vec::new()
        };
        let set = Arc::new(RingSet {
            cores: rings
                .iter()
                .flat_map(RingRotation::cores)
                .copied()
                .collect(),
            lens: rings.iter().map(RingRotation::capacity).collect(),
            responses: rings
                .iter()
                .flat_map(|ring| steady.response(ring.cores().iter().map(|c| c.index())))
                .collect(),
            rest,
        });
        let mut ops = self.probe.lock();
        if let Some(known) = ops.sets.iter().find(|known| known.holds(rings)) {
            return Ok(Arc::clone(known));
        }
        if ops.sets.len() >= PROBE_CACHE_CAP {
            ops.sets.clear();
        }
        ops.sets.push(Arc::clone(&set));
        Ok(set)
    }

    /// Every ring's unit-watt rotation kernel at epoch length `tau` (s),
    /// one block for `set` (see [`ProbeOperators::kernels`]), read under
    /// one lock of the probe cache. A missing block is built outside it
    /// by one [`Self::relax_cycles`] over every ring, from the cores'
    /// rows of `projᵀ` (one watt on slot `e`'s core in epoch `e`, no
    /// ambient term) and one computation of the decay data, and cached.
    /// That decay data bypasses the runtime's cache and tallies: whether
    /// a build runs depends on this cache, which no checkpoint records.
    fn rotation_kernels(&self, set: &Arc<RingSet>, tau: f64) -> Result<Arc<Matrix>> {
        if let Some(h) = self.probe.lock().kernels(set, tau) {
            return Ok(h);
        }
        let basis = self.runtime.basis();
        let ys: Vec<&[f64]> = set
            .cores
            .iter()
            .map(|c| basis.proj_t().row(c.index()))
            .collect();
        let decay = Arc::new(ModalDecay::new(basis.eigen().eigenvalues(), tau));
        let h = Arc::new(self.relax_cycles(&ys, &set.lens, &vec![decay; set.lens.len()])?);
        let mut ops = self.probe.lock();
        if let Some(known) = ops.kernels(set, tau) {
            return Ok(known);
        }
        if ops.kernels.len() >= PROBE_CACHE_CAP {
            ops.kernels.clear();
        }
        ops.kernels
            .push((Arc::clone(set), tau.to_bits(), Arc::clone(&h)));
        Ok(h)
    }

    /// The spectral decomposition backing the solver (for diagnostics).
    pub fn eigen(&self) -> &SystemEigen {
        self.runtime.basis().eigen()
    }
}

/// The report over a steady cycle's boundary junction temperatures: the
/// first boundary and junction reaching the maximum are the critical
/// ones.
fn report_from_boundaries(boundary_temps: Vec<Vector>) -> PeakReport {
    let mut peak = f64::NEG_INFINITY;
    let mut critical_core = CoreId(0);
    let mut critical_epoch = 0;
    for (e, cores) in boundary_temps.iter().enumerate() {
        if let Some(idx) = cores.argmax() {
            if cores[idx] > peak {
                peak = cores[idx];
                critical_core = CoreId(idx);
                critical_epoch = e;
            }
        }
    }
    PeakReport {
        peak_celsius: peak,
        critical_core,
        critical_epoch,
        boundary_temps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_floorplan::GridFloorplan;
    use hp_thermal::{NumericsStats, SolverStats, ThermalConfig, TransientSolver};

    fn solver_4x4() -> RotationPeakSolver {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
        RotationPeakSolver::new(model).unwrap()
    }

    fn fig1_sequence(tau: f64) -> EpochPowerSequence {
        // Two 7 W threads opposite each other on the centre ring.
        let ring = [5usize, 6, 10, 9];
        let epochs = (0..4)
            .map(|e| {
                let mut p = Vector::constant(16, 0.3);
                p[ring[e % 4]] = 7.0;
                p[ring[(e + 2) % 4]] = 7.0;
                p
            })
            .collect();
        EpochPowerSequence::new(tau, epochs).unwrap()
    }

    #[test]
    fn constant_power_reduces_to_steady_state() {
        let s = solver_4x4();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let seq = EpochPowerSequence::new(1e-3, vec![p.clone(), p.clone(), p.clone()]).unwrap();
        let report = s.peak(&seq).unwrap();
        let direct = s
            .model()
            .core_temperatures(&s.model().steady_state(&p).unwrap());
        assert!((report.peak_celsius - direct.max()).abs() < 1e-6);
        assert_eq!(report.critical_core, CoreId(5));
    }

    #[test]
    fn matches_brute_force_simulation() {
        // Iterate the exact transient stepper for many periods and compare
        // the cycle boundaries with the closed form. A reduced sink
        // capacitance shortens the slowest time constant so the brute-force
        // run converges within a reasonable number of epochs.
        let fp = GridFloorplan::new(4, 4).unwrap();
        let cfg = ThermalConfig {
            c_sink: 0.005,
            ..ThermalConfig::default()
        };
        let model = RcThermalModel::new(&fp, &cfg).unwrap();
        let s = RotationPeakSolver::new(model).unwrap();
        let seq = fig1_sequence(0.5e-3);
        let report = s.peak(&seq).unwrap();

        let transient = TransientSolver::new(s.model()).unwrap();
        let mut t = s.model().ambient_state();
        // 4000 epochs of 0.5 ms = 2 s >> all (reduced) time constants.
        for k in 0..4000 {
            let p = seq.epoch(k % 4);
            t = transient.step(s.model(), &t, p, seq.tau()).unwrap();
        }
        // One more full period, checking each boundary.
        for e in 0..4 {
            t = transient
                .step(s.model(), &t, seq.epoch(e), seq.tau())
                .unwrap();
            let cores = s.model().core_temperatures(&t);
            let closed = &report.boundary_temps[e];
            for c in 0..16 {
                assert!(
                    (cores[c] - closed[c]).abs() < 1e-3,
                    "boundary {e} core {c}: {} vs {}",
                    cores[c],
                    closed[c]
                );
            }
        }
    }

    #[test]
    fn reference_form_agrees() {
        let s = solver_4x4();
        for tau in [0.1e-3, 0.5e-3, 2e-3] {
            let seq = fig1_sequence(tau);
            let fast = s.peak(&seq).unwrap().peak_celsius;
            let reference = s.peak_reference(&seq).unwrap();
            assert!(
                (fast - reference).abs() < 1e-8,
                "tau {tau}: {fast} vs {reference}"
            );
        }
    }

    #[test]
    fn cycle_weight_sums_to_one() {
        // The δ weights of Eq. (10) form a normalized geometric partition:
        // Σ_age m^age·(1−m)/(1−m^δ) = 1 for every λτ < 0. The pre-fix
        // reference path built `1 − m` by subtraction, which breaks this
        // identity by ~eps/|λτ| (2e-4 relative at λτ = −1e-12); the shared
        // expm1-based helper holds it to machine precision across the
        // whole range, including where expm1(δλτ) underflows.
        for lam_tau in [-1e-15, -1e-12, -1e-9, -1e-6, -1e-3, -1.0, -100.0] {
            for delta in 1..=8usize {
                let sum: f64 = (0..delta)
                    .map(|age| cycle_weight(lam_tau, delta, age))
                    .sum();
                assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "lam_tau {lam_tau} delta {delta}: sum {sum}"
                );
            }
        }
    }

    #[test]
    fn cycle_weight_degenerate_limit_is_uniform() {
        // δλτ below f64::MIN_POSITIVE: every epoch weighs exactly 1/δ.
        for delta in 1..=6usize {
            let w = cycle_weight(-1e-310, delta, 0);
            assert_eq!(w, 1.0 / delta as f64);
        }
        // And the weights decay monotonically with age (older epochs
        // matter less) whenever λτ is resolvable.
        for age in 1..6 {
            assert!(cycle_weight(-0.5, 6, age) < cycle_weight(-0.5, 6, age - 1));
        }
    }

    #[test]
    fn slow_sink_fast_matches_reference() {
        // Stress case for slow eigenmodes: a huge sink capacitance and
        // weak sink-to-ambient conductance push the slowest eigenvalue to
        // λ ≈ −2e-5 s⁻¹, so m = e^{λτ} sits within a few ulp of 1 — the
        // regime where the pre-fix weight paths (λτ recovered from m.ln()
        // on the fast path, 1 − m by subtraction on the reference path)
        // lose all relative precision. With the shared helper both weight
        // paths agree to machine precision; the remaining ~1e-7 gap is the
        // *steady-state* cross-validation (peak_reference deliberately
        // solves T_ss by LU while the fast path uses the precomputed
        // eigen projection, whose error the near-singular mode amplifies
        // by 1/|λ_min| ≈ 5e4), so the bound here is 1e-6, not 1e-7.
        let cfg = ThermalConfig {
            c_sink: 40000.0,
            g_sink_ambient: 0.02,
            ..ThermalConfig::default()
        };
        let model = RcThermalModel::new(&GridFloorplan::new(3, 3).unwrap(), &cfg).unwrap();
        let s = RotationPeakSolver::new(model).unwrap();
        for delta in [1usize, 3, 6] {
            let powers: Vec<Vector> = (0..delta)
                .map(|e| Vector::from_fn(9, |c| ((e * 9 + c * 7) % 11) as f64 * 0.7))
                .collect();
            for tau in [1e-4, 5e-4, 2.35e-3, 4e-3] {
                let seq = EpochPowerSequence::new(tau, powers.clone()).unwrap();
                let fast = s.peak_celsius(&seq).unwrap();
                let reference = s.peak_reference(&seq).unwrap();
                assert!(
                    (fast - reference).abs() < 1e-6,
                    "tau {tau} delta {delta}: {fast} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn peak_celsius_matches_full_report() {
        let s = solver_4x4();
        for tau in [0.1e-3, 0.5e-3, 2e-3] {
            let seq = fig1_sequence(tau);
            let fast = s.peak_celsius(&seq).unwrap();
            let full = s.peak(&seq).unwrap().peak_celsius;
            assert!((fast - full).abs() < 1e-10, "tau {tau}: {fast} vs {full}");
        }
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        // Mixed δ (1, 3, 4) and mixed τ in one batch; the column-stacked
        // GEMM pipeline must reproduce the scalar path exactly (identical
        // operations in identical order — see Matrix::mul_matrix).
        let s = solver_4x4();
        let mut seqs = vec![
            fig1_sequence(0.1e-3),
            fig1_sequence(0.5e-3),
            fig1_sequence(2e-3),
        ];
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        seqs.push(EpochPowerSequence::new(1e-3, vec![p.clone()]).unwrap());
        seqs.push(
            EpochPowerSequence::new(
                0.7e-3,
                (0..3)
                    .map(|e| Vector::from_fn(16, |c| ((c + e) % 5) as f64 * 1.3 + 0.3))
                    .collect(),
            )
            .unwrap(),
        );
        let batch = s.peak_celsius_many(&seqs).unwrap();
        assert_eq!(batch.len(), seqs.len());
        for (seq, &b) in seqs.iter().zip(&batch) {
            let scalar = s.peak_celsius(seq).unwrap();
            assert_eq!(
                scalar.to_bits(),
                b.to_bits(),
                "batch must be bit-identical: {scalar} vs {b}"
            );
        }
    }

    #[test]
    fn batch_of_empty_slice_is_empty() {
        let s = solver_4x4();
        assert!(s.peak_celsius_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn batch_rejects_mismatched_core_count() {
        let s = solver_4x4();
        let good = fig1_sequence(0.5e-3);
        let bad = EpochPowerSequence::new(1e-3, vec![Vector::zeros(8)]).unwrap();
        assert!(matches!(
            s.peak_celsius_many(&[good, bad]),
            Err(HotPotatoError::InvalidSequence(_))
        ));
        // A rejected batch is not tallied.
        assert_eq!(s.runtime().stats(), SolverStats::default());
    }

    #[test]
    fn batch_stable_across_repeated_calls() {
        // Exercises the per-τ decay cache: the second call hits the cache
        // and must return the same bits.
        let s = solver_4x4();
        let seqs = vec![fig1_sequence(0.5e-3), fig1_sequence(0.5e-3)];
        let a = s.peak_celsius_many(&seqs).unwrap();
        let b = s.peak_celsius_many(&seqs).unwrap();
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(a[0].to_bits(), a[1].to_bits());
        assert_eq!(a, b);
    }

    #[test]
    fn cloned_solver_agrees() {
        let s = solver_4x4();
        let seq = fig1_sequence(0.5e-3);
        let clone = s.clone();
        let a = s.peak_celsius(&seq).unwrap();
        let b = clone.peak_celsius(&seq).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn rotation_beats_pinning() {
        let s = solver_4x4();
        // Pinned: both threads never move (constant power, epochs equal).
        let mut pinned_p = Vector::constant(16, 0.3);
        pinned_p[5] = 7.0;
        pinned_p[10] = 7.0;
        let pinned = EpochPowerSequence::new(0.5e-3, vec![pinned_p]).unwrap();
        let rotated = fig1_sequence(0.5e-3);
        let p_pin = s.peak(&pinned).unwrap().peak_celsius;
        let p_rot = s.peak(&rotated).unwrap().peak_celsius;
        assert!(
            p_rot < p_pin - 5.0,
            "rotation {p_rot:.1} vs pinned {p_pin:.1}"
        );
        // And the Fig. 2 calibration: pinned exceeds 70 C, rotation stays below.
        assert!(p_pin > 70.0);
        assert!(p_rot < 70.0);
    }

    #[test]
    fn faster_rotation_lowers_peak() {
        let s = solver_4x4();
        let slow = s.peak(&fig1_sequence(4e-3)).unwrap().peak_celsius;
        let fast = s.peak(&fig1_sequence(0.25e-3)).unwrap().peak_celsius;
        assert!(fast < slow, "fast {fast:.2} vs slow {slow:.2}");
    }

    #[test]
    fn peak_invariant_under_cyclic_shift() {
        let s = solver_4x4();
        let seq = fig1_sequence(0.5e-3);
        let base = s.peak(&seq).unwrap().peak_celsius;
        for k in 1..4 {
            let shifted = s.peak(&seq.shifted(k)).unwrap().peak_celsius;
            assert!((base - shifted).abs() < 1e-9, "shift {k}");
        }
    }

    #[test]
    fn peak_monotone_in_power() {
        let s = solver_4x4();
        let lo = fig1_sequence(0.5e-3);
        let hi = {
            let epochs = (0..4)
                .map(|e| {
                    let mut p = lo.epoch(e).clone();
                    for i in 0..16 {
                        p[i] *= 1.2;
                    }
                    p
                })
                .collect();
            EpochPowerSequence::new(0.5e-3, epochs).unwrap()
        };
        assert!(s.peak(&hi).unwrap().peak_celsius > s.peak(&lo).unwrap().peak_celsius);
    }

    #[test]
    fn stats_count_batches_and_cache_traffic() {
        let s = solver_4x4();
        assert_eq!(s.runtime().stats(), SolverStats::default());
        let seq = fig1_sequence(1e-3);
        s.peak_celsius(&seq).unwrap();
        s.peak_celsius_many(&[seq.clone(), seq, fig1_sequence(2e-3)])
            .unwrap();
        let st = s.runtime().stats();
        assert_eq!(st.batch_calls, 1);
        assert_eq!(st.batched_items, 3);
        // τ = 1e-3 was computed once and reused twice; τ = 2e-3 is fresh.
        assert_eq!(st.decay_cache_misses, 2);
        assert_eq!(st.decay_cache_hits, 2);
        // A clone starts from zero; reset clears the original.
        let fresh = s.clone();
        assert_eq!(fresh.runtime().stats(), SolverStats::default());
        s.runtime().reset_tallies();
        assert_eq!(s.runtime().stats(), SolverStats::default());
    }

    #[test]
    fn mismatched_core_count_rejected() {
        let s = solver_4x4();
        let seq = EpochPowerSequence::new(1e-3, vec![Vector::zeros(8)]).unwrap();
        assert!(matches!(
            s.peak(&seq),
            Err(HotPotatoError::InvalidSequence(_))
        ));
    }

    #[test]
    fn sampled_with_one_sample_is_boundary_form() {
        // The kernel samples each epoch once, at its end: the peak is the
        // hottest junction of the report's boundaries, bit for bit.
        let s = solver_4x4();
        for tau in [0.1e-3, 0.5e-3, 2e-3] {
            let seq = fig1_sequence(tau);
            let report = s.peak(&seq).unwrap();
            assert_eq!(report.boundary_temps.len(), seq.delta());
            let hottest = report
                .boundary_temps
                .iter()
                .flat_map(|b| b.iter().copied())
                .fold(f64::NEG_INFINITY, f64::max);
            let peak = s.peak_celsius(&seq).unwrap();
            assert_eq!(peak.to_bits(), hottest.to_bits(), "tau {tau}");
        }
    }

    #[test]
    fn sampled_on_an_armed_solver_runs_the_dense_cycle() {
        // An armed solver runs δ dense steps per candidate, counts no
        // batch, and returns the dense cycle's bits.
        let s = solver_stiff_4x4();
        let seq = fig1_sequence(0.5e-3);
        let peak = s.peak_celsius(&seq).unwrap();
        let n = s.runtime().numerics();
        assert_eq!(n.fallback_steps, 4);
        assert_eq!((n.fallback_activations, n.guard_trips), (1, 0));
        assert_eq!(s.runtime().stats().batch_calls, 0);
        let dense = s
            .dense_cycle(&seq)
            .unwrap()
            .iter()
            .flat_map(|b| b.iter().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(peak.to_bits(), dense.to_bits(), "{peak} vs {dense}");
    }

    #[test]
    fn sampled_guard_trips_and_recomputes_densely() {
        // A megawatt core leaves the envelope guard's range: the explicit
        // path trips once, recomputes the two epochs densely and returns
        // the dense cycle's bits.
        let s = solver_4x4();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 1e6;
        let seq = EpochPowerSequence::new(1e-3, vec![p.clone(), p]).unwrap();
        let peak = s.peak_celsius(&seq).unwrap();
        assert!(s.degraded());
        let n = s.runtime().numerics();
        assert_eq!((n.guard_trips, n.fallback_activations), (1, 1));
        assert_eq!(n.fallback_steps, 2);
        let dense = s
            .dense_cycle(&seq)
            .unwrap()
            .iter()
            .flat_map(|b| b.iter().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(peak.to_bits(), dense.to_bits());
    }

    fn rings_4x4() -> Vec<RingRotation<f64>> {
        GridFloorplan::new(4, 4)
            .unwrap()
            .amd_rings()
            .iter()
            .map(|r| RingRotation::new(r.cores().to_vec()))
            .collect()
    }

    #[test]
    fn probe_of_the_fig1_rotation_is_its_sequence_peak() {
        // Two 7 W threads opposite each other on the centre ring, the
        // rest of the chip idle: exactly `fig1_sequence`.
        let (s, reference) = (solver_4x4(), solver_4x4());
        let mut rings = rings_4x4();
        assert_eq!(rings[0].cores(), [5, 6, 10, 9].map(CoreId));
        rings[0].occupy(0, 7.0);
        rings[0].occupy(2, 7.0);
        for tau in [0.25e-3, 0.5e-3, 4e-3] {
            let probe = s.peak_of_rings(&rings, |w| w, 0.3, tau, true).unwrap();
            let explicit = reference.peak_celsius(&fig1_sequence(tau)).unwrap();
            assert!(
                (probe - explicit).abs() < 1e-9,
                "tau {tau}: {probe} vs {explicit}"
            );
        }
        let st = s.runtime().stats();
        assert_eq!((st.batch_calls, st.batched_items), (3, 3));
        assert_eq!((st.decay_cache_hits, st.decay_cache_misses), (0, 0));
    }

    #[test]
    fn probe_rejects_malformed_input_without_counting() {
        let s = solver_4x4();
        let mut rings = rings_4x4();
        rings[0].occupy(0, 7.0);
        for tau in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                s.peak_of_rings(&rings, |w| w, 0.3, tau, true),
                Err(HotPotatoError::InvalidParameter { name: "tau", .. })
            ));
        }
        let off_chip = vec![RingRotation::new(vec![CoreId(3), CoreId(16)])];
        let twice = vec![rings[0].clone(), rings[0].clone()];
        for bad in [&off_chip, &twice] {
            for rotating in [true, false] {
                assert!(matches!(
                    s.peak_of_rings(bad, |w| w, 0.3, 1e-3, rotating),
                    Err(HotPotatoError::InvalidAssignment(_))
                ));
            }
        }
        let nan = |_: f64| f64::NAN;
        assert!(s.peak_of_rings(&rings, nan, 0.3, 1e-3, true).is_err());
        assert!(s
            .peak_of_rings(&rings, |w| w, f64::NAN, 1e-3, false)
            .is_err());
        let mut huge = rings_4x4();
        huge[0].occupy(0, f64::MAX);
        huge[0].occupy(1, f64::MAX);
        assert!(
            s.peak_of_rings(&huge, |w| w, 0.3, 1e-3, true).is_err(),
            "an average beyond f64 is refused"
        );
        assert_eq!(s.runtime().stats(), SolverStats::default());
        assert!(!s.degraded());
    }

    #[test]
    fn idle_and_pinned_probes_are_steady_states() {
        let s = solver_4x4();
        let mut rings = rings_4x4();
        let idle = s.peak_of_rings(&rings, |w| w, 0.3, 1e-3, true).unwrap();
        let p = Vector::constant(16, 0.3);
        let steady = s
            .model()
            .core_temperatures(&s.model().steady_state(&p).unwrap());
        assert!(
            (idle - steady.max()).abs() < 1e-9,
            "{idle} vs {}",
            steady.max()
        );
        rings[1].occupy(2, 6.0);
        let pinned = s.peak_of_rings(&rings, |w| w, 0.3, 1e-3, false).unwrap();
        let mut p = Vector::constant(16, 0.3);
        p[rings[1].core_of_slot(2).index()] = 6.0;
        let steady = s
            .model()
            .core_temperatures(&s.model().steady_state(&p).unwrap());
        assert!((pinned - steady.max()).abs() < 1e-9);
        // Neither counts a batch.
        assert_eq!(s.runtime().stats().batch_calls, 0);
    }

    #[test]
    fn dispatched_probe_body_matches_the_portable_body_bit_for_bit() {
        // `ProbeSession::run` checks these features in this order.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        let backend = if std::arch::is_x86_feature_detected!("avx512f") {
            "avx512f"
        } else if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "portable"
        };
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let backend = "portable";
        println!("probe dispatch backend: {backend}");
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // 64, 16, 9 and 6 junction columns: full vectors and remainders;
        // 3×3's centre ring has one slot.
        for (w, h) in [(8, 8), (4, 4), (3, 3), (3, 2)] {
            let fp = GridFloorplan::new(w, h).unwrap();
            let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
            let s = RotationPeakSolver::new(model).unwrap();
            let idle_chip: Vec<RingRotation<f64>> = fp
                .amd_rings()
                .iter()
                .map(|r| RingRotation::new(r.cores().to_vec()))
                .collect();
            let mut cases = vec![idle_chip.clone()];
            for _ in 0..6 {
                let mut rings = idle_chip.clone();
                for ring in &mut rings {
                    for slot in 0..ring.capacity() {
                        match next() % 4 {
                            0 => {}
                            // Idle power: a zero weight the sums skip.
                            1 => ring.occupy(slot, 0.3),
                            _ => ring.occupy(slot, 0.5 + (next() % 1000) as f64 * 7.5e-3),
                        }
                    }
                }
                cases.push(rings);
            }
            // One session per build, fed the same probes: the first pass
            // sums every ring's maxima, the second reads them back.
            let probe = |session: &mut ProbeSession, rings, tau, rotating, portable| {
                session.read(&s, rings, |watts| watts).unwrap();
                let rotating = rotating && session.rings.iter().any(|r| r.occupied);
                if rotating {
                    session.price(&s, tau).unwrap();
                }
                if portable {
                    session.body(rotating);
                } else {
                    session.run(rotating);
                }
                session.peaks.clone()
            };
            let mut dispatched = s.session(&idle_chip, 0.3).unwrap();
            let mut portable = s.session(&idle_chip, 0.3).unwrap();
            for _ in 0..2 {
                for rings in &cases {
                    for tau in crate::HotPotatoConfig::default().tau_levels {
                        for rotating in [true, false] {
                            let a = probe(&mut dispatched, rings, tau, rotating, false);
                            let b = probe(&mut portable, rings, tau, rotating, true);
                            let bits = |peaks: &[f64]| {
                                peaks.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(
                                bits(&a),
                                bits(&b),
                                "{w}x{h} tau {tau} rotating {rotating}: {a:?} vs {b:?}"
                            );
                        }
                    }
                }
            }
            assert_eq!(dispatched.entries.len(), portable.entries.len());
        }
    }

    #[test]
    fn a_reverted_trial_reads_the_cached_maxima_bit_for_bit() {
        let s = solver_4x4();
        let mut rings = rings_4x4();
        rings[1].occupy(3, 5.0);
        let mut session = s.session(&rings, 0.3).unwrap();
        let mut peak = |rings: &[RingRotation<f64>], tau| {
            let p = session.peak(&s, rings, |w| w, tau, true).unwrap();
            (p, session.entries.len())
        };
        let (base, cached) = peak(&rings, 1e-3);
        assert_eq!(cached, 1);
        // A trial on the centre ring sums that ring only.
        rings[0].occupy(0, 7.0);
        let (trial, cached) = peak(&rings, 1e-3);
        assert_eq!(cached, 2);
        rings[0].remove(7.0);
        let (again, cached) = peak(&rings, 1e-3);
        assert_eq!(cached, 2, "the reverted ring is a cache hit");
        assert_eq!(again.to_bits(), base.to_bits());
        // Another τ is another key.
        let (_, cached) = peak(&rings, 2e-3);
        assert_eq!(cached, 3);
        // A fresh session prices the same seats to the same bits.
        let one =
            |rings: &[RingRotation<f64>]| s.peak_of_rings(rings, |w| w, 0.3, 1e-3, true).unwrap();
        assert_eq!(one(&rings).to_bits(), base.to_bits());
        rings[0].occupy(0, 7.0);
        assert_eq!(one(&rings).to_bits(), trial.to_bits());
        // Four session probes and two sessions of one, as today's probes
        // count: one batch of the occupied rings each.
        let st = s.runtime().stats();
        assert_eq!(
            (st.batch_calls, st.batched_items),
            (6, 1 + 2 + 1 + 1 + 1 + 2)
        );
    }

    #[test]
    fn a_session_refuses_other_rings_and_other_solvers() {
        let s = solver_4x4();
        let rings = rings_4x4();
        let mut session = s.session(&rings, 0.3).unwrap();
        let mut reversed = rings.clone();
        reversed.reverse();
        let fp = GridFloorplan::new(3, 3).unwrap();
        let other =
            RotationPeakSolver::new(RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap())
                .unwrap();
        for (solver, rings) in [(&s, &rings[..1]), (&s, &reversed[..]), (&other, &rings[..])] {
            assert!(matches!(
                session.peak(solver, rings, |w| w, 1e-3, true),
                Err(HotPotatoError::InvalidAssignment(_))
            ));
        }
        // A clone works on the same basis.
        let clone = s.clone();
        assert!(session.peak(&clone, &rings, |w| w, 1e-3, true).is_ok());
        assert_eq!(s.runtime().stats(), SolverStats::default());
    }

    #[test]
    fn a_clone_keeps_the_cached_operators() {
        let s = solver_4x4();
        let mut rings = rings_4x4();
        rings[2].occupy(1, 4.0);
        let before = s.peak_of_rings(&rings, |w| w, 0.3, 2e-3, true).unwrap();
        let clone = s.clone();
        let after = clone.peak_of_rings(&rings, |w| w, 0.3, 2e-3, true).unwrap();
        assert_eq!(before.to_bits(), after.to_bits());
        let kernels = |solver: &RotationPeakSolver| {
            let ops = solver.probe.lock();
            let set = ops.sets.iter().find(|set| set.holds(&rings)).unwrap();
            ops.kernels(set, 2e-3).unwrap()
        };
        assert!(
            Arc::ptr_eq(&kernels(&s), &kernels(&clone)),
            "one shared block of kernels"
        );
        assert_eq!(clone.probe.lock().sets.len(), 1);
        // A solver of the model's clone is on the same basis, so it
        // shares them too; a solver of another model builds its own.
        let sibling = RotationPeakSolver::new(s.model().clone()).unwrap();
        assert!(Arc::ptr_eq(&kernels(&s), &kernels(&sibling)));
        let other = solver_4x4();
        assert!(other.probe.lock().sets.is_empty());
        let again = other.peak_of_rings(&rings, |w| w, 0.3, 2e-3, true).unwrap();
        assert_eq!(before.to_bits(), again.to_bits());
        assert!(!Arc::ptr_eq(&kernels(&s), &kernels(&other)));
    }

    #[test]
    fn a_full_kernel_cache_is_cleared_before_the_next_insert() {
        let s = solver_4x4();
        let mut rings = rings_4x4();
        rings[0].occupy(0, 7.0);
        let blocks = || s.probe.lock().kernels.len();
        for k in 1..=PROBE_CACHE_CAP {
            let tau = 1e-4 * f64::from(u32::try_from(k).unwrap());
            s.peak_of_rings(&rings, |w| w, 0.3, tau, true).unwrap();
        }
        assert_eq!(blocks(), PROBE_CACHE_CAP);
        s.peak_of_rings(&rings, |w| w, 0.3, 1.0, true).unwrap();
        assert_eq!(blocks(), 1);
        // Ring sets likewise: every pair of cores as a one-ring set.
        let sets = || s.probe.lock().sets.len();
        let mut pairs = (0..16).flat_map(|i| (i + 1..16).map(move |j| [CoreId(i), CoreId(j)]));
        while sets() < PROBE_CACHE_CAP {
            let pair = RingRotation::<f64>::new(pairs.next().unwrap().to_vec());
            s.session(&[pair], 0.3).unwrap();
        }
        let pair = RingRotation::<f64>::new(pairs.next().unwrap().to_vec());
        s.session(&[pair], 0.3).unwrap();
        assert_eq!(sets(), 1);
    }

    #[test]
    fn boundary_temps_above_ambient() {
        let s = solver_4x4();
        let report = s.peak(&fig1_sequence(0.5e-3)).unwrap();
        for b in &report.boundary_temps {
            assert!(b.min() > 45.0);
        }
    }

    fn solver_stiff_4x4() -> RotationPeakSolver {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::ill_conditioned()).unwrap();
        RotationPeakSolver::new(model).unwrap()
    }

    #[test]
    fn healthy_solver_is_not_degraded() {
        let s = solver_4x4();
        assert!(!s.degraded());
        assert_eq!(s.runtime().numerics(), NumericsStats::default());
    }

    #[test]
    fn stiff_model_peak_completes_via_dense_fallback() {
        let s = solver_stiff_4x4();
        assert!(s.degraded());
        let seq = fig1_sequence(0.5e-3);
        let report = s.peak(&seq).unwrap();
        assert!(report.peak_celsius.is_finite());
        assert!(report.peak_celsius > s.model().config().ambient);
        for b in &report.boundary_temps {
            assert!(b.iter().all(|v| v.is_finite()));
        }
        let n = s.runtime().numerics();
        assert_eq!(n.fallback_activations, 1);
        assert_eq!(n.fallback_steps, 4);
        // Scalar and batch entry points agree on the dense path too.
        let scalar = s.peak_celsius(&seq).unwrap();
        let batch = s.peak_celsius_many(&[seq]).unwrap();
        assert_eq!(scalar.to_bits(), report.peak_celsius.to_bits());
        assert_eq!(batch[0].to_bits(), scalar.to_bits());
    }

    #[test]
    fn stiff_model_rotation_still_beats_pinning() {
        // The dense path preserves the paper's headline ordering.
        let s = solver_stiff_4x4();
        let mut pinned_p = Vector::constant(16, 0.3);
        pinned_p[5] = 7.0;
        pinned_p[10] = 7.0;
        let pinned = EpochPowerSequence::new(0.5e-3, vec![pinned_p]).unwrap();
        let rotated = fig1_sequence(0.5e-3);
        let p_pin = s.peak_celsius(&pinned).unwrap();
        let p_rot = s.peak_celsius(&rotated).unwrap();
        assert!(p_rot < p_pin, "rotation {p_rot:.2} vs pinned {p_pin:.2}");
    }

    #[test]
    fn dense_cycle_matches_eigen_on_healthy_model() {
        // Differential pin: on a well-conditioned model the dense cycle
        // fixed point must land within a millikelvin of Algorithm 1.
        let s = solver_4x4();
        for tau in [0.5e-3, 2e-3] {
            let seq = fig1_sequence(tau);
            let eigen = s.peak(&seq).unwrap();
            let dense = report_from_boundaries(s.dense_cycle(&seq).unwrap());
            assert!(
                (eigen.peak_celsius - dense.peak_celsius).abs() < 1e-3,
                "tau {tau}: eigen {} vs dense {}",
                eigen.peak_celsius,
                dense.peak_celsius
            );
            // critical_core is not compared: the rotation is symmetric, so
            // several cores peak within femtokelvins and the argmax is a
            // coin flip between the two paths.
            for (a, b) in eigen.boundary_temps.iter().zip(&dense.boundary_temps) {
                assert!((&(a.clone()) - b).norm_inf() < 1e-3);
            }
        }
    }

    #[test]
    fn nonfinite_epoch_power_rejected() {
        let s = solver_4x4();
        let mut p = Vector::constant(16, 0.3);
        p[7] = f64::NAN;
        let seq = EpochPowerSequence::new(1e-3, vec![p]).unwrap();
        assert!(matches!(
            s.peak_celsius_many(std::slice::from_ref(&seq)),
            Err(HotPotatoError::Linalg(_))
        ));
        assert!(s.peak(&seq).is_err());
        assert!(s.peak_celsius(&seq).is_err());
        assert!(s.peak_reference(&seq).is_err());
        // Rejected inputs never degrade the solver.
        assert!(!s.degraded());
    }

    #[test]
    fn clone_inherits_degradation_with_fresh_tallies() {
        let s = solver_stiff_4x4();
        s.peak_celsius(&fig1_sequence(0.5e-3)).unwrap();
        let fresh = s.clone();
        assert!(fresh.degraded());
        assert_eq!(fresh.runtime().numerics(), NumericsStats::default());
        // Reset clears tallies but not the degradation verdict.
        s.runtime().reset_tallies();
        assert_eq!(s.runtime().numerics(), NumericsStats::default());
        assert!(s.degraded());
    }

    fn model_4x4() -> RcThermalModel {
        let fp = GridFloorplan::new(4, 4).unwrap();
        RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap()
    }

    #[test]
    fn a_clone_of_a_decomposed_model_matches_a_fresh_model_bit_for_bit() {
        let model = model_4x4();
        let first = RotationPeakSolver::new(model.clone()).unwrap();
        let shared = RotationPeakSolver::new(model).unwrap();
        assert!(std::ptr::eq(first.eigen(), shared.eigen()));
        let fresh = RotationPeakSolver::new(model_4x4()).unwrap();
        for tau in [0.25e-3, 1e-3, 4e-3] {
            let seq = fig1_sequence(tau);
            let a = shared.peak(&seq).unwrap();
            let b = fresh.peak(&seq).unwrap();
            assert_eq!(
                a.peak_celsius.to_bits(),
                b.peak_celsius.to_bits(),
                "tau {tau}"
            );
            assert_eq!(a.boundary_temps, b.boundary_temps, "tau {tau}");
        }
    }

    #[test]
    fn clone_shares_the_basis() {
        let s = solver_4x4();
        let clone = s.clone();
        assert!(std::ptr::eq(s.eigen(), clone.eigen()));
    }

    #[test]
    fn armed_basis_degrades_from_construction() {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::ill_conditioned()).unwrap();
        assert!(model.basis().unwrap().armed());
        let s = RotationPeakSolver::new(model).unwrap();
        // Degraded before any evaluation, with nothing counted yet.
        assert!(s.degraded());
        assert_eq!(s.runtime().numerics(), NumericsStats::default());
    }

    #[test]
    fn shared_basis_serves_the_transient_solver_too() {
        let model = model_4x4();
        let transient = TransientSolver::new(&model).unwrap();
        let peak = RotationPeakSolver::new(model.clone()).unwrap();
        assert!(std::ptr::eq(transient.eigen(), peak.eigen()));
        // The model's cell and the two solvers hold the one basis.
        assert_eq!(Arc::strong_count(model.basis().unwrap()), 3);
        // Both solvers read the same steady state off the one basis: a
        // one-epoch (constant) power sequence peaks at the hottest
        // junction of the transient solver's long-run limit.
        let mut p = Vector::constant(16, 0.3);
        p[6] = 7.0;
        let seq = EpochPowerSequence::new(1e-3, vec![p.clone()]).unwrap();
        let limit = transient
            .step(&model, &model.ambient_state(), &p, 1e4)
            .unwrap();
        let hottest = model.core_temperatures(&limit).max();
        let peak_c = peak.peak_celsius(&seq).unwrap();
        assert!((peak_c - hottest).abs() < 1e-6, "{peak_c} vs {hottest}");
    }
}
