//! The bookkeeping both modal solvers share — the transient solver and
//! Algorithm 1's rotation-peak solver differ only in their mathematics:
//! decay and dense-fallback caches, the physical-envelope guard with its
//! sticky trip flag, and the activity and numerical-integrity tallies.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hp_linalg::Vector;

use crate::ModalBasis;

/// Distinct step lengths (`dt` or τ) cached per runtime. An interval
/// simulator steps at one `dt` and the scheduler explores a handful of
/// τ, so the cap only guards against pathological churn: a full cache
/// is cleared before the next insert.
const DECAY_CACHE_CAP: usize = 64;

/// Eigen-path outputs may undershoot ambient by round-off but never by
/// a degree; anything below trips the guard.
const GUARD_SLACK_CELSIUS: f64 = 1.0;

/// Physical ceiling above ambient: no silicon the model describes
/// survives a kilokelvin rise, so an eigen-path output beyond it is
/// numerical garbage, not physics.
const GUARD_CEILING_RISE_CELSIUS: f64 = 1000.0;

/// The envelope guard's bounds `(ambient − 1 °C, ambient + 1000 °C)` for
/// an ambient of `ambient_celsius`, as the doubles the guard compares
/// against.
pub(crate) fn envelope_celsius(ambient_celsius: f64) -> (f64, f64) {
    (
        ambient_celsius - GUARD_SLACK_CELSIUS,
        ambient_celsius + GUARD_CEILING_RISE_CELSIUS,
    )
}

/// Decay data of one step length `dt` (s): `λᵢ·dt`, the modal decay
/// factors `e^{λᵢ·dt}`, and their complements `1 − e^{λᵢ·dt}` taken
/// from `expm1` so slow modes keep their significance.
#[derive(Debug)]
pub struct ModalDecay {
    /// `λᵢ·dt`, the product itself (never recovered from `ln m`).
    pub lam_dt: Vector,
    /// `e^{λᵢ·dt}`.
    pub m: Vector,
    /// `−expm1(λᵢ·dt)`.
    pub one_minus_m: Vector,
}

impl ModalDecay {
    /// Decay data of the modes with eigenvalues `eigenvalues` (1/s) over
    /// `dt` seconds, uncached and uncounted: for operators a solver
    /// derives from it and caches itself.
    pub fn new(eigenvalues: &Vector, dt: f64) -> Self {
        let n = eigenvalues.len();
        let lam_dt = Vector::from_fn(n, |i| eigenvalues[i] * dt);
        ModalDecay {
            m: Vector::from_fn(n, |i| lam_dt[i].exp()),
            one_minus_m: Vector::from_fn(n, |i| -f64::exp_m1(lam_dt[i])),
            lam_dt,
        }
    }
}

/// Activity tallies of a solver, read with [`ModalRuntime::stats`].
/// They count events since construction (or the last
/// [`ModalRuntime::reset_tallies`]) and depend only on the sequence of
/// solver calls, never on wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Batched kernel invocations: every transient `step` and `advance`
    /// (each a batch of one state), every accepted Algorithm-1
    /// `peak_celsius_many`, and every accepted rotating Algorithm-2
    /// probe (`ProbeSession::peak`, `peak_of_rings`) with an occupied
    /// ring. Algorithm 1's `peak` and `peak_celsius`, and pinned or
    /// empty-chip probes, are not counted.
    pub batch_calls: u64,
    /// Items pushed through those batches: states of the transient
    /// solver, candidate rotations of Algorithm 1, occupied rings of an
    /// Algorithm-2 probe.
    pub batched_items: u64,
    /// Decay lookups served from the cache. Only the transient step and
    /// Algorithm 1's explicit-sequence entry points look up: an
    /// Algorithm-2 probe reads its solver's cached rotation kernels,
    /// built from uncached [`ModalDecay::new`] data, so a scheduler that
    /// only probes counts no lookups.
    pub decay_cache_hits: u64,
    /// Decay lookups that computed fresh decay data (same scope as
    /// [`decay_cache_hits`](SolverStats::decay_cache_hits)).
    pub decay_cache_misses: u64,
}

/// Numerical-integrity tallies of a solver, read with
/// [`ModalRuntime::numerics`]. Seed-deterministic like [`SolverStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NumericsStats {
    /// Episodes of dense-fallback engagement: incremented when the first
    /// fallback step after construction (or a tally reset/resume) runs.
    /// `≥ 1` in a run report means the run's temperatures came (at least
    /// partly) from the backward-Euler path.
    pub fallback_activations: u64,
    /// Steps advanced by the dense fallback: states of the transient
    /// solver, cycle epochs of Algorithm 1.
    pub fallback_steps: u64,
    /// Guard trips: eigen-path outputs that were non-finite or outside
    /// the physical envelope and triggered a dense recomputation.
    pub guard_trips: u64,
}

/// The buffers the transient step writes into, °C, kept from one step
/// to the next so that a steady step allocates nothing: the modal steady
/// state `y`, the relaxed coordinates `z` and the readout (junctions or
/// every node). Each is sized on first use.
#[derive(Debug, Default)]
pub(crate) struct StepBuffers {
    pub(crate) steady: Vec<f64>,
    pub(crate) modal: Vec<f64>,
    pub(crate) readout: Vec<f64>,
}

/// The mutable half of a [`ModalRuntime`]: both caches, the trip flag,
/// the seven tallies and the transient step's buffers. Reached through
/// [`ModalRuntime::lock`] or [`ModalRuntime::get_mut`].
#[derive(Debug)]
pub struct Ledger<D> {
    /// The basis's eigenvalues (1/s), from which cache misses compute
    /// their decay data.
    eigenvalues: Vector,
    /// `dt.to_bits() → ModalDecay`.
    decay: BTreeMap<u64, Arc<ModalDecay>>,
    /// `dt.to_bits() → D`, the solver's dense-fallback operator.
    dense: BTreeMap<u64, Arc<D>>,
    /// Calls route through the dense fallback: set at construction when
    /// the basis is armed, and by a guard trip. Sticky: once the eigen
    /// path has produced garbage on this model there is no evidence
    /// later calls would not.
    degraded: bool,
    stats: SolverStats,
    numerics: NumericsStats,
    /// Derived scratch space: a clone starts without it.
    pub(crate) buffers: StepBuffers,
}

impl<D> Ledger<D> {
    fn new(basis: &ModalBasis) -> Self {
        Ledger {
            eigenvalues: basis.eigen().eigenvalues().clone(),
            decay: BTreeMap::new(),
            dense: BTreeMap::new(),
            degraded: basis.armed(),
            stats: SolverStats::default(),
            numerics: NumericsStats::default(),
            buffers: StepBuffers::default(),
        }
    }

    /// Whether calls route through the dense fallback: the basis failed
    /// its construction-time trust checks, or a guard tripped.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Counts one batched kernel call over `items` items.
    pub fn count_batch(&mut self, items: usize) {
        self.stats.batch_calls += 1;
        self.stats.batched_items += u64::try_from(items).unwrap_or(u64::MAX);
    }

    /// The cached decay data for step length `dt` (s), counting a hit or
    /// a miss.
    pub fn decay(&mut self, dt: f64) -> Arc<ModalDecay> {
        if let Some(d) = self.decay.get(&dt.to_bits()) {
            self.stats.decay_cache_hits += 1;
            return Arc::clone(d);
        }
        self.stats.decay_cache_misses += 1;
        insert_capped(&mut self.decay, dt, ModalDecay::new(&self.eigenvalues, dt))
    }

    /// The runtime envelope guard over eigen-path outputs (°C): every
    /// value must be finite and within
    /// `[ambient − 1 °C, ambient + 1000 °C]`. A violation counts a trip,
    /// sets the sticky flag and returns `true`; the caller then
    /// recomputes densely, and the dense result is authoritative.
    pub fn guard(
        &mut self,
        ambient_celsius: f64,
        values_celsius: impl IntoIterator<Item = f64>,
    ) -> bool {
        let (lo, hi) = envelope_celsius(ambient_celsius);
        let violated = values_celsius
            .into_iter()
            .any(|v| !v.is_finite() || v < lo || v > hi);
        if violated {
            self.numerics.guard_trips += 1;
            self.degraded = true;
        }
        violated
    }

    /// The cached dense-fallback operator for step length `dt` (s),
    /// built by `build` on first use. The first fallback of a measured
    /// run (no fallback step counted yet) opens one activation episode:
    /// counting episodes, not steps, keeps the tally independent of
    /// batch sizes.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn dense<E>(
        &mut self,
        dt: f64,
        build: impl FnOnce() -> std::result::Result<D, E>,
    ) -> std::result::Result<Arc<D>, E> {
        if self.numerics.fallback_steps == 0 {
            self.numerics.fallback_activations += 1;
        }
        match self.dense.get(&dt.to_bits()) {
            Some(d) => Ok(Arc::clone(d)),
            None => Ok(insert_capped(&mut self.dense, dt, build()?)),
        }
    }

    /// Counts `steps` completed dense-fallback steps.
    pub fn count_fallback_steps(&mut self, steps: usize) {
        self.numerics.fallback_steps += u64::try_from(steps).unwrap_or(u64::MAX);
    }
}

/// Caches `value` under step length `dt`, clearing a full cache first.
fn insert_capped<T>(cache: &mut BTreeMap<u64, Arc<T>>, dt: f64, value: T) -> Arc<T> {
    if cache.len() >= DECAY_CACHE_CAP {
        cache.clear();
    }
    let value = Arc::new(value);
    cache.insert(dt.to_bits(), Arc::clone(&value));
    value
}

/// One solver's share of a [`ModalBasis`] plus its [`Ledger`]. `D` is
/// the solver's dense-fallback operator, cached per step length like the
/// decay data.
///
/// The ledger sits behind one mutex. Algorithm 1's `&self` entry points
/// lock it for a few counter updates and cache lookups, never across a
/// GEMM; the transient solver's `step` holds it for its one update; and
/// `&mut` entry points (the engine's `advance`) reach it through
/// [`ModalRuntime::get_mut`] without locking.
///
/// A clone shares the basis, copies the decay cache, inherits the trip
/// flag (it describes the model, and a clone evaluates the same model)
/// and starts with fresh tallies and an empty dense cache: tallies
/// describe what *this* handle performed, not its ancestry.
#[derive(Debug)]
pub struct ModalRuntime<D> {
    basis: Arc<ModalBasis>,
    ledger: Mutex<Ledger<D>>,
}

impl<D> Clone for ModalRuntime<D> {
    fn clone(&self) -> Self {
        let ledger = self.lock();
        ModalRuntime {
            basis: Arc::clone(&self.basis),
            ledger: Mutex::new(Ledger {
                decay: ledger.decay.clone(),
                degraded: ledger.degraded,
                ..Ledger::new(&self.basis)
            }),
        }
    }
}

impl<D> ModalRuntime<D> {
    /// A runtime on `basis` with empty caches and zero tallies.
    pub fn new(basis: Arc<ModalBasis>) -> Self {
        ModalRuntime {
            ledger: Mutex::new(Ledger::new(&basis)),
            basis,
        }
    }

    /// The eigenbasis and modal operators; shared, never mutated.
    pub fn basis(&self) -> &ModalBasis {
        &self.basis
    }

    /// Locks the ledger. A poisoned lock only means another thread
    /// panicked mid-update; every entry is an immutable `Arc` or a plain
    /// counter, so the ledger keeps serving.
    pub fn lock(&self) -> MutexGuard<'_, Ledger<D>> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared basis itself, for states that read out through it.
    pub(crate) fn shared_basis(&self) -> &Arc<ModalBasis> {
        &self.basis
    }

    /// The basis and the ledger through exclusive access, without
    /// locking.
    pub fn get_mut(&mut self) -> (&Arc<ModalBasis>, &mut Ledger<D>) {
        let ledger = self
            .ledger
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        (&self.basis, ledger)
    }

    /// Whether calls route through the dense fallback (see
    /// [`Ledger::degraded`]).
    pub fn degraded(&self) -> bool {
        self.lock().degraded
    }

    /// The activity tallies.
    pub fn stats(&self) -> SolverStats {
        self.lock().stats
    }

    /// The numerical-integrity tallies.
    pub fn numerics(&self) -> NumericsStats {
        self.lock().numerics
    }

    /// Zeroes all seven tallies (start of a new measured run). The trip
    /// flag survives: a guard trip indicts the model's
    /// eigendecomposition, not the run.
    pub fn reset_tallies(&self) {
        let mut ledger = self.lock();
        ledger.stats = SolverStats::default();
        ledger.numerics = NumericsStats::default();
    }

    /// The step lengths (s) held in the decay cache, in ascending bit
    /// order — what a checkpoint records to re-warm the cache.
    pub fn cached_keys(&self) -> Vec<f64> {
        self.lock()
            .decay
            .keys()
            .map(|&bits| f64::from_bits(bits))
            .collect()
    }

    /// The checkpoint-resume path: warms the decay cache for every step
    /// length in `keys_seconds`, then overwrites the tallies with the
    /// captured `stats` and `numerics`, so the warm-up lookups are
    /// discarded and the resumed run reports the same cumulative
    /// counters as an uninterrupted one.
    pub fn resume(&self, keys_seconds: &[f64], stats: SolverStats, numerics: NumericsStats) {
        let mut ledger = self.lock();
        for &dt in keys_seconds {
            ledger.decay(dt);
        }
        ledger.stats = stats;
        ledger.numerics = numerics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RcThermalModel, ThermalConfig};
    use hp_floorplan::GridFloorplan;

    fn runtime() -> ModalRuntime<u32> {
        let fp = GridFloorplan::new(2, 2).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
        ModalRuntime::new(Arc::clone(model.basis().unwrap()))
    }

    /// A dense-cache build closure that records how often it ran.
    fn counting_build(
        builds: &std::cell::Cell<u32>,
    ) -> impl FnOnce() -> std::result::Result<u32, ()> + '_ {
        move || {
            builds.set(builds.get() + 1);
            Ok(7)
        }
    }

    #[test]
    fn decay_matches_the_closed_form_and_counts_hits_and_misses() {
        let rt = runtime();
        let d = rt.lock().decay(1e-3);
        let lambda = rt.basis().eigen().eigenvalues();
        for i in 0..lambda.len() {
            assert_eq!(d.lam_dt[i].to_bits(), (lambda[i] * 1e-3).to_bits());
            assert_eq!(d.m[i].to_bits(), (lambda[i] * 1e-3).exp().to_bits());
            assert_eq!(
                d.one_minus_m[i].to_bits(),
                (-f64::exp_m1(lambda[i] * 1e-3)).to_bits()
            );
        }
        let again = rt.lock().decay(1e-3);
        assert!(Arc::ptr_eq(&d, &again));
        let s = rt.stats();
        assert_eq!((s.decay_cache_hits, s.decay_cache_misses), (1, 1));
        assert_eq!(rt.cached_keys(), vec![1e-3]);
    }

    #[test]
    fn guard_trips_once_per_violation_and_sticks() {
        let rt = runtime();
        assert!(!rt.degraded());
        assert!(!rt.lock().guard(45.0, [44.5, 45.0, 1045.0]));
        assert!(!rt.degraded());
        for bad in [43.9, 1045.1, f64::NAN, f64::INFINITY] {
            assert!(rt.lock().guard(45.0, [50.0, bad]), "{bad}");
        }
        assert!(rt.degraded());
        assert_eq!(rt.numerics().guard_trips, 4);
    }

    #[test]
    fn fallback_counts_one_activation_per_episode() {
        let rt = runtime();
        let builds = std::cell::Cell::new(0);
        for _ in 0..3 {
            let d = rt.lock().dense(1e-3, counting_build(&builds)).unwrap();
            assert_eq!(*d, 7);
            rt.lock().count_fallback_steps(2);
        }
        assert_eq!(builds.get(), 1, "built once per step length");
        let n = rt.numerics();
        assert_eq!((n.fallback_activations, n.fallback_steps), (1, 6));
        // A build error propagates and caches nothing.
        assert_eq!(rt.lock().dense(2e-3, || Err("no")).unwrap_err(), "no");
        rt.lock().dense(2e-3, counting_build(&builds)).unwrap();
        assert_eq!(builds.get(), 2);
    }

    #[test]
    fn reset_zeroes_tallies_but_keeps_the_trip() {
        let rt = runtime();
        rt.lock().count_batch(3);
        rt.lock().decay(1e-3);
        rt.lock().guard(45.0, [f64::NAN]);
        rt.lock().dense(1e-3, || Ok::<_, ()>(1)).unwrap();
        rt.lock().count_fallback_steps(1);
        rt.reset_tallies();
        assert_eq!(rt.stats(), SolverStats::default());
        assert_eq!(rt.numerics(), NumericsStats::default());
        assert!(rt.degraded());
        // The decay cache survives too: the next lookup hits.
        rt.lock().decay(1e-3);
        assert_eq!(rt.stats().decay_cache_hits, 1);
    }

    #[test]
    fn clone_copies_the_decay_cache_and_the_trip_with_fresh_tallies() {
        let rt = runtime();
        let builds = std::cell::Cell::new(0);
        rt.lock().decay(1e-3);
        rt.lock().dense(1e-3, counting_build(&builds)).unwrap();
        rt.lock().count_batch(2);
        rt.lock().guard(45.0, [f64::NAN]);
        let clone = rt.clone();
        assert!(std::ptr::eq(clone.basis(), rt.basis()));
        assert!(clone.degraded(), "the trip is inherited");
        assert_eq!(clone.stats(), SolverStats::default());
        assert_eq!(clone.numerics(), NumericsStats::default());
        clone.lock().decay(1e-3);
        assert_eq!(clone.stats().decay_cache_hits, 1, "decay cache copied");
        clone.lock().dense(1e-3, counting_build(&builds)).unwrap();
        assert_eq!(builds.get(), 2, "dense cache starts empty");
        // The original keeps its own tallies: cloning is not a reset.
        assert_eq!(rt.stats().batch_calls, 1);
        assert_eq!(rt.numerics().guard_trips, 1);
    }

    #[test]
    fn resume_discards_the_warm_up_lookups() {
        let rt = runtime();
        rt.lock().decay(5e-4);
        let stats = SolverStats {
            batch_calls: 9,
            batched_items: 40,
            decay_cache_hits: 38,
            decay_cache_misses: 2,
        };
        let numerics = NumericsStats {
            fallback_activations: 1,
            fallback_steps: 42,
            guard_trips: 3,
        };
        rt.resume(&[1e-3, 5e-4, 2e-3], stats, numerics);
        assert_eq!(rt.stats(), stats);
        assert_eq!(rt.numerics(), numerics);
        assert_eq!(rt.cached_keys(), vec![5e-4, 1e-3, 2e-3]);
        // Every warmed key now hits.
        for dt in [1e-3, 5e-4, 2e-3] {
            rt.lock().decay(dt);
        }
        assert_eq!(rt.stats().decay_cache_hits, 41);
        assert_eq!(rt.stats().decay_cache_misses, 2);
        // Resumed fallback tallies continue the episode: no new
        // activation on the next dense step.
        rt.lock().dense(1e-3, || Ok::<_, ()>(0)).unwrap();
        assert_eq!(rt.numerics().fallback_activations, 1);
    }

    #[test]
    fn a_full_cache_is_cleared_before_the_next_insert() {
        let rt = runtime();
        let builds = std::cell::Cell::new(0);
        for k in 0..DECAY_CACHE_CAP {
            let dt = 1e-4 * (k + 1) as f64;
            rt.lock().decay(dt);
            rt.lock().dense(dt, counting_build(&builds)).unwrap();
        }
        assert_eq!(rt.cached_keys().len(), DECAY_CACHE_CAP);
        rt.lock().decay(1.0);
        rt.lock().dense(1.0, counting_build(&builds)).unwrap();
        assert_eq!(rt.cached_keys(), vec![1.0]);
        // The evicted entries are recomputed on their next lookup.
        rt.lock().decay(1e-4);
        rt.lock().dense(1e-4, counting_build(&builds)).unwrap();
        let s = rt.stats();
        assert_eq!(s.decay_cache_misses, DECAY_CACHE_CAP as u64 + 2);
        assert_eq!(s.decay_cache_hits, 0);
        assert_eq!(builds.get(), DECAY_CACHE_CAP as u32 + 2);
    }

    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let rt = runtime();
        rt.lock().decay(1e-3);
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _ledger = rt.lock();
                panic!("poison the ledger");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(rt.ledger.is_poisoned());
        rt.lock().decay(1e-3);
        rt.lock().count_batch(1);
        assert_eq!(rt.stats().decay_cache_hits, 1);
        assert_eq!(rt.stats().batch_calls, 1);
        assert!(!rt.clone().degraded());
    }
}
