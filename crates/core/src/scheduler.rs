//! The HotPotato run-time scheduler (paper §V, Algorithm 2).
//!
//! HotPotato keeps every core at peak frequency and manages temperature
//! purely through *where* threads run and *how fast they rotate*:
//!
//! * new threads go to the innermost (lowest-AMD, fastest) ring whose
//!   rotation stays below `T_DTM − Δ` according to Algorithm 1;
//! * under thermal pressure, the most compute-bound (lowest-CPI, hottest)
//!   threads are evicted outward, then the rotation accelerates;
//! * with spare headroom, the most memory-bound (highest-CPI) threads are
//!   promoted inward — they benefit most from a low-AMD ring — and the
//!   rotation decelerates (less migration overhead), stopping entirely
//!   when the workload is sustainable without it.
//!
//! ## Deviations from the paper (documented in DESIGN.md §5)
//!
//! * **Slot choice inside a ring** — the paper evaluates every empty slot
//!   in parallel; because ring cores are thermally homogeneous by
//!   symmetry, we pick the free slot farthest (in rotation order) from the
//!   occupied slots and evaluate Algorithm 1 once. On a symmetric grid this
//!   selects the same slot the exhaustive search would.
//! * **Cross-ring coupling** — when evaluating one ring's rotation, other
//!   rings contribute their *time-averaged* power on their own cores
//!   (they rotate too, so their long-run contribution on each of their
//!   cores is the mean). `T_peak` is the max over per-ring evaluations.
//!   The policy lives in one place, the probe of a
//!   [`ProbeSession`], which the design-space oracle reaches through
//!   [`RotationPeakSolver::peak_of_rings`]; it evaluates the per-ring
//!   cycles by superposition of cached unit-watt rotation kernels.
//!
//! ## Cost of a hook
//!
//! The scheduler prices through one [`ProbeSession`], opened by its first
//! probe and emptied at the start of every hook. A trial changes one or
//! two rings, and the session caches every other ring's ring-local
//! maxima, so a trial re-sums only the rings it changed plus an
//! `O(rings·cores)` background; the bits do not depend on what the
//! session has cached. The hook's own bookkeeping allocates
//! little: each seat carries its thread's power estimate and CPI, the
//! eviction and promotion candidates are sorted once per hook and kept
//! sorted as threads move, and the rotation permutes the slots in place.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

use hp_floorplan::CoreId;
use hp_linalg::Matrix;
use hp_obs::{Registry, RunReport};
use hp_power::IDLE_WATTS;
use hp_sim::codec::{decode, encode};
use hp_sim::{Action, JobId, Scheduler, SchedulerHealth, SimView, ThreadId};
use hp_thermal::{NumericsStats, RcThermalModel, SolverStats};

use crate::{ProbeSession, Result, RingRotation, RotationPeakSolver};

/// Tuning knobs of the HotPotato scheduler.
///
/// The DTM threshold is not among them: every hook reads the engine's
/// [`SimView::t_dtm`], the threshold the hardware DTM enforces.
///
/// # Example
///
/// ```
/// use hotpotato::HotPotatoConfig;
///
/// let cfg = HotPotatoConfig::default();
/// assert_eq!(cfg.tau_levels[cfg.initial_tau_index], 0.5e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HotPotatoConfig {
    /// Thermal headroom hysteresis Δ, °C (paper: 1 °C).
    pub delta_headroom: f64,
    /// Available rotation intervals τ, seconds, fastest first.
    ///
    /// Effective rotation granularity is bounded below by the engine's
    /// [`hp_sim::SimConfig::sched_period`] — the scheduler can only act
    /// when it is invoked, so a τ below the scheduling period behaves
    /// like the period itself.
    pub tau_levels: Vec<f64>,
    /// Index into `tau_levels` used at start (paper: 0.5 ms).
    pub initial_tau_index: usize,
    /// Master ablation switch: with rotation disabled HotPotato degrades
    /// to ring-aware placement only.
    pub rotation_enabled: bool,
}

impl Default for HotPotatoConfig {
    fn default() -> Self {
        HotPotatoConfig {
            delta_headroom: 1.0,
            tau_levels: vec![0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3],
            initial_tau_index: 1,
            rotation_enabled: true,
        }
    }
}

/// `T_peak` is re-evaluated at least this often even without assignment
/// changes, s (power drift tracking).
const REEVALUATE_SECONDS: f64 = 5e-3;

/// Ring moves (evictions + promotions) per scheduling hook, at most.
const MAX_MOVES_PER_HOOK: usize = 4;

impl HotPotatoConfig {
    fn validate(&self) -> Result<()> {
        if self.tau_levels.is_empty() || self.initial_tau_index >= self.tau_levels.len() {
            return Err(crate::HotPotatoError::InvalidParameter {
                name: "initial_tau_index",
                value: self.initial_tau_index as f64,
            });
        }
        for &t in &self.tau_levels {
            if !(t.is_finite() && t > 0.0) {
                return Err(crate::HotPotatoError::InvalidParameter {
                    name: "tau_levels",
                    value: t,
                });
            }
        }
        Ok(())
    }
}

/// The HotPotato scheduler: synchronous thread rotations over AMD rings,
/// no DVFS.
///
/// Implements [`hp_sim::Scheduler`]; see the module-level documentation
/// for the policy and the [crate docs](crate) for the analytics underneath.
#[derive(Debug)]
pub struct HotPotato {
    config: HotPotatoConfig,
    solver: RotationPeakSolver,
    /// Ring bookkeeping, built lazily from the machine on the first
    /// `schedule` call (empty until then).
    rings: Vec<RingRotation<Seat>>,
    tau_index: usize,
    rotating: bool,
    last_rotation: f64,
    last_peak: f64,
    last_evaluation: f64,
    assignment_dirty: bool,
    /// Cached per-thread power estimates from the last call; each seat
    /// carries its thread's.
    powers: BTreeMap<ThreadId, Estimate>,
    /// Number of Algorithm-1 evaluations performed (for the overhead study).
    evaluations: u64,
    /// Number of probes that failed (rejected input or solver error)
    /// and were read as `T_peak = ∞`.
    solver_failures: u64,
    /// The probe session over `rings`, opened by the first probe and
    /// emptied at the start of every hook, so each hook's trials share
    /// their ring-local maxima while the buffers outlive the hook. Its
    /// contents are a pure function of the seats, τ and the basis: it is
    /// never snapshotted.
    session: Option<ProbeSession>,
    /// Ring occupancy restored from a checkpoint before the rings
    /// themselves exist ([`Scheduler::restore`] has no machine access);
    /// applied and consumed by the first `schedule` call after the lazy
    /// ring construction. `None` outside that window.
    restored_slots: Option<Vec<Vec<SavedSeat>>>,
    /// Probe wall-clock histograms and policy counters, surfaced through
    /// [`Scheduler::observability`].
    obs: Registry,
}

impl HotPotato {
    /// Builds the scheduler for a chip with the given thermal model.
    /// Every hook tests its headroom against the view's
    /// [`SimView::t_dtm`].
    ///
    /// The model must match the machine the simulation runs on. The
    /// design-time phase of Algorithm 1 (the eigendecomposition) happens
    /// here unless the model, or a clone of it, has already built its
    /// [`basis`](RcThermalModel::basis): N jobs on clones of one cached
    /// model decompose once, not N times.
    ///
    /// # Errors
    ///
    /// Propagates configuration and eigendecomposition failures.
    pub fn new(model: RcThermalModel, config: HotPotatoConfig) -> Result<Self> {
        let solver = RotationPeakSolver::new(model)?;
        config.validate()?;
        Ok(HotPotato {
            tau_index: config.initial_tau_index,
            rotating: config.rotation_enabled,
            config,
            solver,
            rings: Vec::new(),
            last_rotation: 0.0,
            last_peak: 0.0,
            last_evaluation: f64::NEG_INFINITY,
            assignment_dirty: true,
            powers: BTreeMap::new(),
            evaluations: 0,
            solver_failures: 0,
            session: None,
            restored_slots: None,
            obs: Registry::new(),
        })
    }

    /// Current rotation interval τ, seconds.
    pub fn tau(&self) -> f64 {
        self.config.tau_levels[self.tau_index]
    }

    /// Whether rotations are currently active.
    pub fn is_rotating(&self) -> bool {
        self.rotating
    }

    /// Number of Algorithm-1 evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Number of Algorithm-1 evaluations that failed and degraded to a
    /// `T_peak = ∞` reading. A monotone counter: fallback wrappers detect
    /// fresh failures by differencing across scheduling hooks.
    pub fn solver_failures(&self) -> u64 {
        self.solver_failures
    }

    /// Rebuilds the internal ring occupancy from the engine's ground
    /// truth.
    ///
    /// Under injected migration faults (or after a fallback policy has
    /// been driving the chip), the scheduler's slot bookkeeping can
    /// drift from where threads actually run. This drops every ring
    /// assignment and power estimate and re-seats each live thread at
    /// the slot of the core it currently occupies, so the next
    /// [`Scheduler::schedule`] call starts from reality.
    pub fn resync_from_view(&mut self, view: &SimView<'_>) {
        // Seats restored from a checkpoint and not yet re-seated are an
        // assignment too: left pending, the next `schedule` would seat
        // them again beside the threads re-seated here.
        self.restored_slots = None;
        if self.rings.is_empty() {
            self.rings = view
                .machine
                .rings()
                .iter()
                .map(|r| RingRotation::new(r.cores().to_vec()))
                .collect();
        }
        for ring in &mut self.rings {
            for s in 0..ring.capacity() {
                if let Some(seat) = ring.occupant(s) {
                    ring.remove(seat);
                }
            }
        }
        self.powers.clear();
        for t in view.threads {
            for ring in &mut self.rings {
                let Some(slot) = (0..ring.capacity()).find(|&s| ring.core_of_slot(s) == t.core)
                else {
                    continue;
                };
                if ring.occupant(slot).is_none() {
                    // No estimate yet: the probe reads idle power.
                    let seat = Seat {
                        thread: t.id,
                        watts: IDLE_WATTS,
                        cpi: None,
                    };
                    ring.occupy(slot, seat);
                }
                break;
            }
        }
        self.assignment_dirty = true;
    }

    /// Access to the peak solver (for the overhead benchmarks).
    pub fn solver(&self) -> &RotationPeakSolver {
        &self.solver
    }

    /// Estimated power of a thread: the maximum of its *current-phase*
    /// work-point power (instant reaction to an idle→busy phase switch)
    /// and its windowed average (the paper's 10 ms history). Taking the
    /// max is conservative: a thread that just went hot is seen hot
    /// immediately, one that went idle cools the estimate only as the
    /// window drains.
    fn thread_power(view: &SimView<'_>, t: &hp_sim::ThreadView) -> f64 {
        let ladder = &view.machine.config().dvfs;
        let current = if t.work.is_idle() {
            0.0
        } else {
            match view
                .machine
                .cpi_stack_at_level(&t.work, t.core, ladder.max_level())
            {
                Ok(stack) => view
                    .machine
                    .core_power(&stack, ladder.max_level(), view.t_dtm),
                // A live thread's core is always in range; if the model
                // disagrees, trust the windowed average over crashing.
                Err(_) => t.avg_power,
            }
        };
        current.max(t.avg_power)
    }

    /// `T_peak` of the current ring assignment, each seat drawing its
    /// `watts`: one Algorithm-2 probe through the probe session, opened
    /// by the first probe, counted as one Algorithm-1 evaluation per
    /// occupied ring it rotates (one when pinned or idle). A failed
    /// probe, or a session that cannot open, reads as `T_peak = ∞`. Each
    /// probe's wall-clock time, the session's opening included, lands in
    /// the `alg1.probe` histogram — this is the quantity behind the
    /// paper's per-decision scheduling-overhead measurement.
    fn estimate_peak(&mut self, tau: f64, rotating: bool) -> f64 {
        // xtask: allow(nondet) — wall-clock observability timing; the
        // histogram it feeds is excluded from golden outputs.
        let probe_start = Instant::now();
        let cycles = if rotating {
            self.rings
                .iter()
                .filter(|r| r.occupants() > 0)
                .count()
                .max(1)
        } else {
            1
        };
        self.evaluations += cycles as u64;
        let opened = match &mut self.session {
            Some(session) => Ok(session),
            None => self
                .solver
                .session(&self.rings, IDLE_WATTS)
                .map(|opened| self.session.insert(opened)),
        };
        let watts = |seat: Seat| seat.watts;
        let peak = match opened
            .and_then(|session| session.peak(&self.solver, &self.rings, watts, tau, rotating))
        {
            Ok(peak) => peak,
            Err(_) => {
                self.solver_failures += 1;
                f64::INFINITY
            }
        };
        self.obs
            .observe_seconds("alg1.probe", probe_start.elapsed().as_secs_f64());
        peak
    }

    /// Picks the free slot of `ring` farthest from its occupants
    /// (maximal minimum cyclic distance; the last such slot on a tie).
    fn best_free_slot<T: Copy + PartialEq>(ring: &RingRotation<T>) -> Option<usize> {
        let k = ring.capacity();
        let mut free = ring.free_slots();
        if ring.occupants() == 0 {
            return free.next();
        }
        free.max_by_key(|&s| {
            (0..k)
                .filter(|&o| ring.occupant(o).is_some())
                .map(|o| {
                    let d = (s as isize - o as isize).unsigned_abs();
                    d.min(k - d)
                })
                .min()
                .unwrap_or(0)
        })
    }
}

/// A ring seat: its thread, the power, W, the Algorithm-2 probe reads
/// for it, and the thread's last CPI as the engine reported it this
/// hook (`None` for a thread placed in this hook, which neither the
/// eviction nor the promotion loop moves). Seats are equal when they seat
/// the same thread, so a ring finds, moves and frees a thread whatever
/// its power.
#[derive(Debug, Clone, Copy)]
struct Seat {
    thread: ThreadId,
    watts: f64,
    cpi: Option<f64>,
}

/// A thread's cached power estimate, W, and its last CPI this hook:
/// `None` until the engine reports the thread in the hook, and a thread
/// the engine no longer reports has departed.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    watts: f64,
    cpi: Option<f64>,
}

/// An eviction or promotion candidate: a seated thread's CPI and its
/// ring and slot.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cpi: f64,
    ring: usize,
    slot: usize,
}

/// The candidates the engine reports a CPI for in rings `first..`,
/// sorted by `order`.
fn candidates(
    rings: &[RingRotation<Seat>],
    first: usize,
    order: fn(&Candidate, &Candidate) -> Ordering,
) -> Vec<Candidate> {
    let mut list = Vec::new();
    for (ring, r) in rings.iter().enumerate().skip(first) {
        for slot in 0..r.capacity() {
            if let Some(cpi) = r.occupant(slot).and_then(|seat| seat.cpi) {
                list.push(Candidate { cpi, ring, slot });
            }
        }
    }
    list.sort_by(order);
    list
}

/// Eviction order: hottest (lowest CPI) first, ties by ring, then slot.
fn lowest_cpi_first(a: &Candidate, b: &Candidate) -> Ordering {
    a.cpi
        .total_cmp(&b.cpi)
        .then(a.ring.cmp(&b.ring))
        .then(a.slot.cmp(&b.slot))
}

/// Promotion order: most memory-bound (highest CPI) first, ties by
/// ring, then slot.
fn highest_cpi_first(a: &Candidate, b: &Candidate) -> Ordering {
    b.cpi
        .total_cmp(&a.cpi)
        .then(a.ring.cmp(&b.ring))
        .then(a.slot.cmp(&b.slot))
}

/// Re-files candidate `i` of `list` (sorted by `order`) at its new ring
/// and slot.
fn refile(
    list: &mut Vec<Candidate>,
    i: usize,
    ring: usize,
    slot: usize,
    order: fn(&Candidate, &Candidate) -> Ordering,
) {
    let moved = Candidate {
        ring,
        slot,
        ..list.remove(i)
    };
    let at = list.partition_point(|c| order(c, &moved) == Ordering::Less);
    list.insert(at, moved);
}

impl PartialEq for Seat {
    fn eq(&self, other: &Self) -> bool {
        self.thread == other.thread
    }
}

/// One seat of a ring in a snapshot: `[slot, job, thread index]`.
type SavedSeat = (usize, JobId, usize);

hp_sim::codec! {
    /// HotPotato's snapshot blob: every field that influences future
    /// decisions or final counters. Ring occupancy is `null` until the lazy
    /// ring construction has happened; the solver's counters travel with the
    /// τ values whose decay chains it has cached, so a resumed run re-warms
    /// exactly those and the hit/miss counters stay bit-identical. The probe
    /// histograms in `obs` are wall-clock noise and deliberately excluded —
    /// reports are compared with timings stripped.
    struct Snapshot {
        rings: Option<Vec<Vec<SavedSeat>>>,
        tau_index: usize,
        rotating: bool,
        last_rotation: f64,
        last_peak: f64,
        last_evaluation: f64,
        assignment_dirty: bool,
        /// `[job, thread index, watts]` per cached power estimate.
        powers: Vec<(JobId, usize, f64)>,
        evaluations: u64,
        solver_failures: u64,
        alg1_stats: SolverStats,
        numerics_stats: NumericsStats,
        cached_taus: Vec<f64>,
    }
}

impl Scheduler for HotPotato {
    fn name(&self) -> &str {
        "hotpotato"
    }

    fn health(&self) -> SchedulerHealth {
        // An infinite peak estimate means Algorithm 1 could not evaluate
        // the current assignment — the policy is flying blind.
        if self.last_peak.is_infinite() {
            SchedulerHealth::Degraded
        } else {
            SchedulerHealth::Nominal
        }
    }

    fn observability(&self) -> Option<RunReport> {
        let mut report = self.obs.snapshot();
        report.push_counter("alg1.evaluations", self.evaluations);
        report.push_counter("alg1.solver_failures", self.solver_failures);
        let s = self.solver.runtime().stats();
        report.push_counter("alg1.batch_calls", s.batch_calls);
        report.push_counter("alg1.batched_candidates", s.batched_items);
        report.push_counter("alg1.decay_cache_hits", s.decay_cache_hits);
        report.push_counter("alg1.decay_cache_misses", s.decay_cache_misses);
        let n = self.solver.runtime().numerics();
        report.push_counter("numerics.fallback.activations", n.fallback_activations);
        report.push_counter("numerics.fallback.steps", n.fallback_steps);
        report.push_counter("numerics.guard.trips", n.guard_trips);
        report.push_counter("numerics.degraded", u64::from(self.solver.degraded()));
        report.push_counter("rotation.active", u64::from(self.rotating));
        report.push_gauge("rotation.tau_seconds", self.tau());
        report.push_gauge("alg1.estimated_peak_celsius", self.last_peak);
        report.push_meta("gemm_backend", Matrix::gemm_backend());
        Some(report)
    }

    fn snapshot(&self) -> Option<String> {
        let rings = match &self.restored_slots {
            // Restored occupancy not yet applied (no `schedule` call since
            // `restore`): re-emit it so a checkpoint taken in that window
            // still carries the seats.
            Some(pending) => Some(pending.clone()),
            None if self.rings.is_empty() => None,
            None => Some(
                self.rings
                    .iter()
                    .map(|ring| {
                        (0..ring.capacity())
                            .filter_map(|slot| {
                                let seat = ring.occupant(slot)?;
                                Some((slot, seat.thread.job, seat.thread.index))
                            })
                            .collect()
                    })
                    .collect(),
            ),
        };
        let runtime = self.solver.runtime();
        Some(encode(&Snapshot {
            rings,
            tau_index: self.tau_index,
            rotating: self.rotating,
            last_rotation: self.last_rotation,
            last_peak: self.last_peak,
            last_evaluation: self.last_evaluation,
            assignment_dirty: self.assignment_dirty,
            powers: self
                .powers
                .iter()
                .map(|(t, e)| (t.job, t.index, e.watts))
                .collect(),
            evaluations: self.evaluations,
            solver_failures: self.solver_failures,
            alg1_stats: runtime.stats(),
            numerics_stats: runtime.numerics(),
            cached_taus: runtime.cached_keys(),
        }))
    }

    fn restore(&mut self, state: &str) -> std::result::Result<(), String> {
        let snap: Snapshot = decode(state).map_err(|e| format!("hotpotato snapshot: {e}"))?;
        if snap.tau_index >= self.config.tau_levels.len() {
            return Err(format!(
                "hotpotato snapshot: tau_index {} out of range for {} levels",
                snap.tau_index,
                self.config.tau_levels.len()
            ));
        }
        // Ring occupancy waits for the first `schedule` call: rings are
        // built lazily from the machine, which `restore` cannot see.
        self.restored_slots = snap.rings;
        self.tau_index = snap.tau_index;
        self.rotating = snap.rotating;
        self.last_rotation = snap.last_rotation;
        self.last_peak = snap.last_peak;
        self.last_evaluation = snap.last_evaluation;
        self.assignment_dirty = snap.assignment_dirty;
        self.powers = snap
            .powers
            .into_iter()
            .map(|(job, index, watts)| (ThreadId { job, index }, Estimate { watts, cpi: None }))
            .collect();
        self.evaluations = snap.evaluations;
        self.solver_failures = snap.solver_failures;
        // Re-warm exactly the decay chains the snapshotted solver had
        // cached, discarding the warm-up lookups with the captured
        // tallies, so every subsequent lookup hits and the alg1.*
        // counters in the final report match an uninterrupted run.
        self.solver
            .runtime()
            .resume(&snap.cached_taus, snap.alg1_stats, snap.numerics_stats);
        Ok(())
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        // Lazy ring construction from the machine's AMD rings.
        if self.rings.is_empty() {
            self.rings = view
                .machine
                .rings()
                .iter()
                .map(|r| RingRotation::new(r.cores().to_vec()))
                .collect();
        }
        // Re-seat checkpoint-restored occupancy now that the rings exist.
        // The engine's spec-hash binding guarantees the machine (and so
        // the ring structure) matches the one that produced the snapshot.
        if let Some(pending) = self.restored_slots.take() {
            for (ring, seats) in self.rings.iter_mut().zip(pending) {
                for (slot, job, index) in seats {
                    if slot < ring.capacity() && ring.occupant(slot).is_none() {
                        // Priced with every other seat below.
                        let seat = Seat {
                            thread: ThreadId { job, index },
                            watts: IDLE_WATTS,
                            cpi: None,
                        };
                        ring.occupy(slot, seat);
                    }
                }
            }
        }

        let mut actions = Vec::new();
        // Each hook prices from an empty cache of ring-local maxima.
        if let Some(session) = &mut self.session {
            session.clear();
        }

        // --- Sync with the engine: refresh every live thread's power
        //     estimate and CPI, then drop the threads it no longer runs. ---
        for estimate in self.powers.values_mut() {
            estimate.cpi = None;
        }
        for t in view.threads {
            let watts = Self::thread_power(view, t);
            let fresh = Estimate {
                watts,
                cpi: Some(t.last_cpi),
            };
            match self.powers.entry(t.id) {
                Entry::Occupied(mut known) => {
                    if (known.get().watts - watts).abs() > 0.25 {
                        self.assignment_dirty = true;
                    }
                    known.insert(fresh);
                }
                Entry::Vacant(new) => {
                    new.insert(fresh);
                    self.assignment_dirty = true;
                }
            }
        }
        let known = self.powers.len();
        self.powers.retain(|_, estimate| estimate.cpi.is_some());
        if self.powers.len() != known {
            self.assignment_dirty = true;
        }
        // Exactly the live threads have an estimate now: each seat takes
        // its thread's, and a departed thread's seat is freed.
        for ring in &mut self.rings {
            for s in 0..ring.capacity() {
                let Some(seat) = ring.occupant_mut(s) else {
                    continue;
                };
                match self.powers.get(&seat.thread) {
                    Some(estimate) => {
                        seat.watts = estimate.watts;
                        seat.cpi = estimate.cpi;
                    }
                    None => {
                        let departed = *seat;
                        ring.remove(departed);
                    }
                }
            }
        }

        // --- Placement of pending jobs (Algorithm 2, lines 1–14). ---
        let ring_count = self.rings.len();
        for job in view.pending {
            let est = {
                // Estimate new-thread power on a representative inner core.
                let work = job.benchmark.work_point();
                let ladder = &view.machine.config().dvfs;
                let core = self.rings.first().map_or(CoreId(0), |r| r.cores()[0]);
                match view
                    .machine
                    .cpi_stack_at_level(&work, core, ladder.max_level())
                {
                    Ok(stack) => view
                        .machine
                        .core_power(&stack, ladder.max_level(), view.t_dtm),
                    // Ring cores are always in range; a disagreeing model
                    // degrades to the idle estimate instead of crashing.
                    Err(_) => IDLE_WATTS,
                }
            };
            // Skip jobs that cannot fit in the free slots at all.
            let free_total: usize = self
                .rings
                .iter()
                .map(|r| r.capacity() - r.occupants())
                .sum();
            if free_total < job.threads {
                continue;
            }
            let mut cores = Vec::with_capacity(job.threads);
            let mut tau_index = self.tau_index;
            for i in 0..job.threads {
                let seat = Seat {
                    thread: ThreadId {
                        job: job.job,
                        index: i,
                    },
                    watts: est,
                    cpi: None,
                };
                // Walk rings inner → outer; remember the coolest option as
                // a best-effort fallback (a new thread is never starved —
                // the rotation and, ultimately, the hardware DTM cope).
                let mut fallback: Option<(usize, usize, f64)> = None;
                let mut chosen: Option<(usize, usize)> = None;
                for r in 0..ring_count {
                    let Some(slot) = Self::best_free_slot(&self.rings[r]) else {
                        continue;
                    };
                    self.rings[r].occupy(slot, seat);
                    let peak = self.estimate_peak(
                        self.config.tau_levels[tau_index],
                        self.rotating && self.config.rotation_enabled,
                    );
                    if peak + self.config.delta_headroom < view.t_dtm {
                        chosen = Some((r, slot));
                        break;
                    }
                    self.rings[r].remove(seat);
                    if fallback.is_none_or(|(_, _, p)| peak < p) {
                        fallback = Some((r, slot, peak));
                    }
                }
                // Lines 12–14: no ring fits — accelerate the rotation and
                // retry the coolest ring until it fits or τ bottoms out.
                if chosen.is_none() && self.config.rotation_enabled {
                    if let Some((r, slot, _)) = fallback {
                        while tau_index > 0 && chosen.is_none() {
                            tau_index -= 1;
                            self.rotating = true;
                            self.rings[r].occupy(slot, seat);
                            let tau = self.config.tau_levels[tau_index];
                            let peak = self.estimate_peak(tau, true);
                            if peak + self.config.delta_headroom < view.t_dtm {
                                chosen = Some((r, slot));
                            } else {
                                self.rings[r].remove(seat);
                            }
                        }
                    }
                }
                // Best effort: take the coolest slot found.
                let (r, slot) = chosen.unwrap_or_else(|| {
                    // xtask: allow(panic) — free_total ≥ job.threads was
                    // checked above, so some ring offered a slot.
                    let (r, slot, _) = fallback.expect("free_total checked above");
                    self.rings[r].occupy(slot, seat);
                    (r, slot)
                });
                cores.push(self.rings[r].core_of_slot(slot));
            }
            debug_assert_eq!(cores.len(), job.threads);
            self.tau_index = tau_index;
            self.powers.extend((0..job.threads).map(|i| {
                (
                    ThreadId {
                        job: job.job,
                        index: i,
                    },
                    Estimate {
                        watts: est,
                        cpi: None,
                    },
                )
            }));
            actions.push(Action::PlaceJob {
                job: job.job,
                cores,
            });
            self.assignment_dirty = true;
        }

        // --- Re-evaluate T_peak when needed. ---
        let due = view.time - self.last_evaluation >= REEVALUATE_SECONDS;
        if self.assignment_dirty || due || view.dtm_active {
            self.last_peak = self.estimate_peak(self.tau(), self.rotating);
            self.last_evaluation = view.time;
            self.assignment_dirty = false;
        }

        // --- Thermal pressure: evict hot threads outward, then speed up
        //     the rotation (lines 7–14). The loop engages when either the
        //     *predicted* or the *measured* headroom shrinks below Δ — the
        //     paper's "sudden increase ... in thermal headroom" adjustment
        //     — not only on violation.
        let measured_max = view.core_temps.max();
        let mut moves = 0usize;
        let mut evictable: Option<Vec<Candidate>> = None;
        while self.last_peak.max(measured_max) > view.t_dtm - self.config.delta_headroom
            && moves < MAX_MOVES_PER_HOOK
        {
            // Cheapest knob first: if rotation is parked, restart it.
            if self.config.rotation_enabled && !self.rotating {
                self.rotating = true;
                self.last_peak = self.estimate_peak(self.tau(), true);
                self.last_evaluation = view.time;
                moves += 1;
                continue;
            }
            // Hottest = lowest CPI. Find the lowest-CPI thread that can move
            // to a higher-AMD ring with free capacity: one in a ring inside
            // the outermost ring with a free slot.
            let candidates =
                evictable.get_or_insert_with(|| candidates(&self.rings, 0, lowest_cpi_first));
            let outermost_free = (0..ring_count)
                .rev()
                .find(|&r| self.rings[r].occupants() < self.rings[r].capacity());
            let chosen =
                outermost_free.and_then(|free| candidates.iter().position(|c| c.ring < free));
            let target = chosen.and_then(|i| {
                let r = candidates[i].ring;
                (r + 1..ring_count)
                    .find_map(|r2| Self::best_free_slot(&self.rings[r2]).map(|s| (i, r2, s)))
            });
            if let Some((i, r2, slot)) = target {
                let Candidate {
                    ring: r,
                    slot: from,
                    ..
                } = candidates[i];
                if let Some(seat) = self.rings[r].occupant(from) {
                    self.rings[r].remove(seat);
                    self.rings[r2].occupy(slot, seat);
                    actions.push(Action::Migrate {
                        thread: seat.thread,
                        to: self.rings[r2].core_of_slot(slot),
                    });
                }
                refile(candidates, i, r2, slot, lowest_cpi_first);
                moves += 1;
            } else {
                // No eviction possible: accelerate the rotation.
                if self.tau_index > 0 {
                    self.tau_index -= 1;
                } else {
                    break; // fastest rotation already; DTM is the backstop
                }
            }
            self.last_peak = self.estimate_peak(self.tau(), self.rotating);
            self.last_evaluation = view.time;
        }

        // --- Headroom: promote memory-bound threads inward, slow the
        //     rotation (lines 16–27). Triggered at twice the hysteresis so
        //     phase transitions (which overshoot the steady cycle) cannot
        //     ping-pong against the pressure loop above.
        let mut promotable: Option<Vec<Candidate>> = None;
        while view.t_dtm - self.last_peak.max(measured_max) > 2.0 * self.config.delta_headroom
            && moves < MAX_MOVES_PER_HOOK
        {
            // Highest CPI first (most memory-bound benefits most); the
            // innermost ring's threads are where they would go already.
            let candidates =
                promotable.get_or_insert_with(|| candidates(&self.rings, 1, highest_cpi_first));
            let mut promoted = None;
            'promote: for (
                i,
                &Candidate {
                    ring: r,
                    slot: origin,
                    ..
                },
            ) in candidates.iter().enumerate()
            {
                let Some(seat) = self.rings[r].occupant(origin) else {
                    continue;
                };
                for r2 in 0..r {
                    let Some(slot) = Self::best_free_slot(&self.rings[r2]) else {
                        continue;
                    };
                    // Tentative move; the origin slot lets the revert
                    // restore the exact engine-visible position.
                    self.rings[r].remove(seat);
                    self.rings[r2].occupy(slot, seat);
                    let peak = self.estimate_peak(self.tau(), self.rotating);
                    if peak + self.config.delta_headroom < view.t_dtm {
                        let to = self.rings[r2].core_of_slot(slot);
                        actions.push(Action::Migrate {
                            thread: seat.thread,
                            to,
                        });
                        self.last_peak = peak;
                        self.last_evaluation = view.time;
                        moves += 1;
                        promoted = Some((i, r2, slot));
                        break 'promote;
                    }
                    // Revert to the exact origin slot (a different slot
                    // would silently desynchronize the ring bookkeeping
                    // from the engine's core assignment).
                    self.rings[r2].remove(seat);
                    self.rings[r].occupy(origin, seat);
                }
            }
            match promoted {
                // The innermost ring is as far as a thread goes.
                Some((i, 0, _)) => {
                    candidates.remove(i);
                }
                Some((i, r2, slot)) => refile(candidates, i, r2, slot, highest_cpi_first),
                None => {
                    // Slow the rotation (less overhead) while still safe.
                    if self.rotating && self.tau_index + 1 < self.config.tau_levels.len() {
                        let slower = self.config.tau_levels[self.tau_index + 1];
                        let peak = self.estimate_peak(slower, true);
                        if peak + 2.0 * self.config.delta_headroom < view.t_dtm {
                            self.tau_index += 1;
                            self.last_peak = peak;
                            self.last_evaluation = view.time;
                            continue;
                        }
                    }
                    if self.rotating {
                        // Sustainable without rotation at all?
                        let pinned = self.estimate_peak(self.tau(), false);
                        if pinned + 2.0 * self.config.delta_headroom < view.t_dtm {
                            self.rotating = false;
                            self.last_peak = pinned;
                            self.last_evaluation = view.time;
                        }
                    }
                    break;
                }
            }
        }

        // --- Synchronous rotation. ---
        if self.rotating
            && self.config.rotation_enabled
            && view.time - self.last_rotation >= self.tau() - 1e-12
        {
            for ring in &mut self.rings {
                if ring.occupants() == 0
                    || ring.occupants() == ring.capacity() && ring.capacity() == 1
                {
                    continue;
                }
                for (seat, _, to) in ring.advance() {
                    actions.push(Action::Migrate {
                        thread: seat.thread,
                        to,
                    });
                }
            }
            self.last_rotation = view.time;
        }

        // A thread may have been both ring-moved and rotated in this call;
        // only its final destination goes to the engine (the ring
        // bookkeeping above already reflects it). Without a ring move,
        // only the rotation migrated, each thread once at most.
        if moves == 0 {
            return actions;
        }
        dedupe_migrations(actions)
    }
}

/// Keeps only the last `Migrate` action per thread, preserving order
/// otherwise.
fn dedupe_migrations(actions: Vec<Action>) -> Vec<Action> {
    // Backwards, so the first `Migrate` seen of a thread is its last;
    // `later` holds, sorted, the threads already seen.
    let mut later: Vec<ThreadId> = Vec::new();
    let mut kept: Vec<Action> = actions
        .into_iter()
        .rev()
        .filter(|a| match a {
            Action::Migrate { thread, .. } => match later.binary_search(thread) {
                Ok(_) => false,
                Err(at) => {
                    later.insert(at, *thread);
                    true
                }
            },
            _ => true,
        })
        .collect();
    kept.reverse();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_floorplan::GridFloorplan;
    use hp_manycore::{ArchConfig, Machine};
    use hp_sim::{SimConfig, Simulation};
    use hp_thermal::ThermalConfig;
    use hp_workload::{Benchmark, Job, JobId};

    fn machine_4x4() -> Machine {
        Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .unwrap()
    }

    fn model_4x4() -> RcThermalModel {
        RcThermalModel::new(
            &GridFloorplan::new(4, 4).unwrap(),
            &ThermalConfig::default(),
        )
        .unwrap()
    }

    fn blackscholes_job() -> Vec<Job> {
        vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Blackscholes,
            spec: Benchmark::Blackscholes.spec(2),
            arrival: 0.0,
        }]
    }

    #[test]
    fn dedupe_keeps_last_migration_per_thread() {
        let t1 = ThreadId {
            job: hp_workload::JobId(0),
            index: 0,
        };
        let t2 = ThreadId {
            job: hp_workload::JobId(0),
            index: 1,
        };
        let actions = vec![
            Action::Migrate {
                thread: t1,
                to: CoreId(1),
            },
            Action::SetAllLevels {
                level: hp_power::DvfsLevel(3),
            },
            Action::Migrate {
                thread: t2,
                to: CoreId(2),
            },
            Action::Migrate {
                thread: t1,
                to: CoreId(5),
            },
        ];
        let out = dedupe_migrations(actions);
        assert_eq!(out.len(), 3);
        // Non-migration actions survive untouched.
        assert!(matches!(out[0], Action::SetAllLevels { .. }));
        // t1's final target wins; t2 untouched.
        let targets: Vec<(ThreadId, CoreId)> = out
            .iter()
            .filter_map(|a| match a {
                Action::Migrate { thread, to } => Some((*thread, *to)),
                _ => None,
            })
            .collect();
        assert!(targets.contains(&(t1, CoreId(5))));
        assert!(targets.contains(&(t2, CoreId(2))));
        assert!(!targets.contains(&(t1, CoreId(1))));
    }

    #[test]
    fn a_hook_that_evicts_and_rotates_migrates_each_thread_once() {
        let machine = machine_4x4();
        let levels = vec![machine.config().dvfs.max_level(); 16];
        let confidence = vec![1.0; 16];
        let view = |time, temps, occupancy, threads, pending| SimView {
            time,
            machine: &machine,
            core_temps: temps,
            levels: &levels,
            occupancy,
            threads,
            pending,
            t_dtm: 70.0,
            dtm_active: false,
            sensor_confidence: &confidence,
        };
        let seated = |hp: &HotPotato| -> BTreeMap<ThreadId, (usize, CoreId)> {
            let mut seated = BTreeMap::new();
            for (r, ring) in hp.rings.iter().enumerate() {
                for s in 0..ring.capacity() {
                    if let Some(seat) = ring.occupant(s) {
                        seated.insert(seat.thread, (r, ring.core_of_slot(s)));
                    }
                }
            }
            seated
        };
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        let pending = [hp_sim::PendingJobView {
            job: JobId(0),
            benchmark: Benchmark::Blackscholes,
            threads: 4,
            arrival: 0.0,
        }];
        let cool = hp_linalg::Vector::constant(16, 45.0);
        let actions = hp.schedule(&view(0.0, &cool, &[None; 16], &[], &pending));
        let Some(Action::PlaceJob { cores, .. }) = actions.first() else {
            panic!("the job is placed: {actions:?}");
        };
        let threads: Vec<hp_sim::ThreadView> = cores
            .iter()
            .enumerate()
            .map(|(index, &core)| hp_sim::ThreadView {
                id: ThreadId {
                    job: JobId(0),
                    index,
                },
                benchmark: Benchmark::Blackscholes,
                core,
                work: Benchmark::Blackscholes.work_point(),
                last_cpi: 1.0,
                avg_power: 5.0,
            })
            .collect();
        let mut occupancy = [None; 16];
        for t in &threads {
            occupancy[t.core.index()] = Some(t.id);
        }
        let before = seated(&hp);
        // Hot sensors make the pressure loop evict, and τ has elapsed
        // since the last rotation, so the same hook rotates every ring.
        let hot = hp_linalg::Vector::constant(16, 80.0);
        let actions = hp.schedule(&view(1e-3, &hot, &occupancy, &threads, &[]));
        let after = seated(&hp);
        assert!(
            before.iter().any(|(t, (r, _))| after[t].0 != *r),
            "a thread was evicted: {before:?} -> {after:?}"
        );
        let mut migrated = BTreeMap::new();
        for a in &actions {
            if let Action::Migrate { thread, to } = a {
                assert!(migrated.insert(*thread, *to).is_none(), "{actions:?}");
            }
        }
        // Every thread rotated, and its one `Migrate` is its final seat.
        let finals: BTreeMap<ThreadId, CoreId> =
            after.iter().map(|(&t, &(_, core))| (t, core)).collect();
        assert_eq!(migrated, finals);
    }

    #[test]
    fn eviction_takes_the_lowest_cpi_first_and_breaks_ties_by_ring_then_slot() {
        let machine = machine_4x4();
        let levels = vec![machine.config().dvfs.max_level(); 16];
        let confidence = vec![1.0; 16];
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        hp.rings = machine
            .rings()
            .iter()
            .map(|r| RingRotation::new(r.cores().to_vec()))
            .collect();
        assert_eq!(
            hp.rings
                .iter()
                .map(RingRotation::capacity)
                .collect::<Vec<_>>(),
            [4, 8, 4]
        );
        // (ring, slot, CPI): one cool-CPI thread amid equal ones.
        let seats = [
            (0, 0, 1.0),
            (0, 1, 1.0),
            (0, 2, 0.5),
            (0, 3, 1.0),
            (1, 0, 1.0),
        ];
        let mut threads = Vec::new();
        let mut occupancy = [None; 16];
        for (index, &(r, slot, cpi)) in seats.iter().enumerate() {
            let id = ThreadId {
                job: JobId(0),
                index,
            };
            let core = hp.rings[r].core_of_slot(slot);
            let seat = Seat {
                thread: id,
                watts: 5.0,
                cpi: None,
            };
            hp.rings[r].occupy(slot, seat);
            occupancy[core.index()] = Some(id);
            threads.push(hp_sim::ThreadView {
                id,
                benchmark: Benchmark::Blackscholes,
                core,
                work: Benchmark::Blackscholes.work_point(),
                last_cpi: cpi,
                avg_power: 5.0,
            });
        }
        // Hot sensors keep the pressure loop evicting for its four moves;
        // τ has not elapsed, so the hook does not rotate.
        let hot = hp_linalg::Vector::constant(16, 80.0);
        let actions = hp.schedule(&SimView {
            time: 1e-4,
            machine: &machine,
            core_temps: &hot,
            levels: &levels,
            occupancy: &occupancy,
            threads: &threads,
            pending: &[],
            t_dtm: 70.0,
            dtm_active: false,
            sensor_confidence: &confidence,
        });
        let ring_of = |index| {
            let thread = ThreadId {
                job: JobId(0),
                index,
            };
            (0..3)
                .find(|&r| {
                    hp.rings[r]
                        .slot_of(Seat {
                            thread,
                            watts: 0.0,
                            cpi: None,
                        })
                        .is_some()
                })
                .unwrap()
        };
        // The lowest CPI leaves first and, still the lowest, moves on to
        // the outermost ring; then the equal-CPI threads go in ring, then
        // slot, order until the four moves are spent: the centre ring's
        // slots 0 and 1, ahead of its slot 3 and of ring 1's thread.
        assert_eq!((0..5).map(ring_of).collect::<Vec<_>>(), [1, 1, 2, 0, 1]);
        let migrated: Vec<usize> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Migrate { thread, .. } => Some(thread.index),
                _ => None,
            })
            .collect();
        assert_eq!(migrated, [2, 0, 1], "{actions:?}");
    }

    #[test]
    fn the_threshold_is_the_views() {
        // One canneal thread on the centre ring, sensors at 60 °C: the
        // same hook leaves it there under a 70 °C threshold and evicts it
        // outward under 55 °C.
        let machine = machine_4x4();
        let levels = vec![machine.config().dvfs.max_level(); 16];
        let confidence = vec![1.0; 16];
        let temps = hp_linalg::Vector::constant(16, 60.0);
        let thread = ThreadId {
            job: JobId(0),
            index: 0,
        };
        let hook = |t_dtm: f64| {
            let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
            hp.rings = machine
                .rings()
                .iter()
                .map(|r| RingRotation::new(r.cores().to_vec()))
                .collect();
            let core = hp.rings[0].core_of_slot(0);
            let seat = Seat {
                thread,
                watts: 2.0,
                cpi: None,
            };
            hp.rings[0].occupy(0, seat);
            let mut occupancy = [None; 16];
            occupancy[core.index()] = Some(thread);
            let threads = [hp_sim::ThreadView {
                id: thread,
                benchmark: Benchmark::Canneal,
                core,
                work: Benchmark::Canneal.work_point(),
                last_cpi: 2.0,
                avg_power: 2.0,
            }];
            let actions = hp.schedule(&SimView {
                time: 1e-4,
                machine: &machine,
                core_temps: &temps,
                levels: &levels,
                occupancy: &occupancy,
                threads: &threads,
                pending: &[],
                t_dtm,
                dtm_active: false,
                sensor_confidence: &confidence,
            });
            let ring = (0..hp.rings.len()).find(|&r| hp.rings[r].slot_of(seat).is_some());
            (ring, actions)
        };
        let (ring, actions) = hook(70.0);
        assert_eq!(ring, Some(0));
        assert!(actions.is_empty(), "{actions:?}");
        let (ring, actions) = hook(55.0);
        assert_eq!(ring, Some(2), "evicted to the outermost ring");
        assert!(
            matches!(actions[..], [Action::Migrate { thread: t, to }]
                if t == thread && machine.rings().ring(2).cores().contains(&to)),
            "{actions:?}"
        );
    }

    #[test]
    fn best_free_slot_maximizes_separation() {
        // Occupant at slot 0 of a 4-ring: the farthest free slot is 2.
        let mut ring = RingRotation::new(vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        ring.occupy(
            0,
            ThreadId {
                job: hp_workload::JobId(0),
                index: 0,
            },
        );
        assert_eq!(HotPotato::best_free_slot(&ring), Some(2));
        // Fill slot 2 as well: remaining slots 1 and 3 are equidistant.
        ring.occupy(
            2,
            ThreadId {
                job: hp_workload::JobId(0),
                index: 1,
            },
        );
        let s = HotPotato::best_free_slot(&ring).expect("slots remain");
        assert!(s == 1 || s == 3);
        ring.occupy(
            s,
            ThreadId {
                job: hp_workload::JobId(0),
                index: 2,
            },
        );
        let last = HotPotato::best_free_slot(&ring).expect("one slot left");
        ring.occupy(
            last,
            ThreadId {
                job: hp_workload::JobId(0),
                index: 3,
            },
        );
        assert_eq!(HotPotato::best_free_slot(&ring), None);
    }

    #[test]
    fn best_free_slot_on_empty_ring_is_first() {
        let ring: RingRotation<ThreadId> = RingRotation::new(vec![CoreId(0), CoreId(1), CoreId(2)]);
        assert_eq!(HotPotato::best_free_slot(&ring), Some(0));
    }

    #[test]
    fn config_validation() {
        let bad = HotPotatoConfig {
            tau_levels: vec![],
            ..HotPotatoConfig::default()
        };
        assert!(HotPotato::new(model_4x4(), bad).is_err());
        let bad = HotPotatoConfig {
            initial_tau_index: 99,
            ..HotPotatoConfig::default()
        };
        assert!(HotPotato::new(model_4x4(), bad).is_err());
    }

    #[test]
    fn runs_blackscholes_thermally_safe() {
        // The Fig. 2(c) scenario: HotPotato must complete the job without
        // ever crossing the threshold, by rotating on the centre ring.
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig {
                record_trace: true,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        let m = sim.run(blackscholes_job(), &mut hp).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        assert!(
            m.migrations > 10,
            "rotation happened ({} migrations)",
            m.migrations
        );
        assert!(
            m.peak_temperature < 70.5,
            "thermally safe (peak {:.1})",
            m.peak_temperature
        );
        assert_eq!(m.dtm_intervals, 0, "no DTM events");
    }

    #[test]
    fn rotation_disabled_is_respected() {
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig {
                dtm_enabled: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let cfg = HotPotatoConfig {
            rotation_enabled: false,
            ..HotPotatoConfig::default()
        };
        let mut hp = HotPotato::new(model_4x4(), cfg).unwrap();
        let m = sim.run(blackscholes_job(), &mut hp).unwrap();
        assert_eq!(m.completed_jobs(), 1);
    }

    #[test]
    fn cool_job_eventually_stops_rotating() {
        // A memory-bound canneal instance is sustainable pinned; after the
        // headroom logic runs, rotation should stop.
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        let jobs = vec![Job {
            id: JobId(0),
            benchmark: Benchmark::Canneal,
            spec: Benchmark::Canneal.spec(2),
            arrival: 0.0,
        }];
        let m = sim.run(jobs, &mut hp).unwrap();
        assert_eq!(m.completed_jobs(), 1);
        assert!(!hp.is_rotating(), "rotation stopped for a cool workload");
    }

    #[test]
    fn evaluations_counted() {
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        sim.run(blackscholes_job(), &mut hp).unwrap();
        assert!(hp.evaluations() > 0);
    }

    #[test]
    fn observability_reports_probe_activity() {
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        let metrics = sim.run(blackscholes_job(), &mut hp).unwrap();
        let report = hp.observability().expect("hotpotato reports");
        assert_eq!(report.counter("alg1.evaluations"), Some(hp.evaluations()));
        assert_eq!(report.counter("alg1.solver_failures"), Some(0));
        assert!(report.counter("alg1.batched_candidates").unwrap_or(0) > 0);
        assert!(report.histogram("alg1.probe").is_some_and(|h| h.count > 0));
        assert!(report.meta_value("gemm_backend").is_some());
        // The engine folded the same report in under the `sched.` prefix.
        let merged = &metrics.observability;
        assert_eq!(
            merged.counter("sched.alg1.evaluations"),
            Some(hp.evaluations())
        );
        assert!(merged.counter("engine.intervals").unwrap_or(0) > 0);
        assert!(merged
            .histogram("hook.schedule")
            .is_some_and(|h| h.count > 0));
        assert_eq!(
            merged.meta_value("gemm_backend"),
            Matrix::gemm_backend().into()
        );
    }

    #[test]
    fn snapshot_round_trips_through_restore() {
        // Drive the scheduler through a real run so every field
        // (rings, powers, tau ladder, solver stats) is non-trivial,
        // then check snapshot -> restore -> snapshot is a fixpoint.
        let mut sim = Simulation::new(
            machine_4x4(),
            ThermalConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        sim.run(blackscholes_job(), &mut hp).unwrap();
        let blob = hp.snapshot().expect("hotpotato snapshots");

        let mut fresh = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        fresh.restore(&blob).expect("restore accepts own snapshot");
        assert_eq!(
            fresh.snapshot().expect("snapshot after restore"),
            blob,
            "snapshot/restore must be a fixpoint"
        );
        assert_eq!(fresh.evaluations(), hp.evaluations());
        assert_eq!(fresh.solver_failures(), hp.solver_failures());
        assert_eq!(fresh.tau(), hp.tau());
        assert_eq!(fresh.is_rotating(), hp.is_rotating());
        let a = fresh.solver().runtime().stats();
        let b = hp.solver().runtime().stats();
        assert_eq!(a.decay_cache_hits, b.decay_cache_hits);
        assert_eq!(a.decay_cache_misses, b.decay_cache_misses);
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        assert!(hp.restore("not json").is_err());
        assert!(hp.restore("{}").is_err(), "missing fields rejected");
        // tau_index beyond the ladder must be refused, not clamped.
        let blob = hp.snapshot().expect("snapshots");
        let bad = blob.replace("\"tau_index\":1", "\"tau_index\":99");
        assert_ne!(bad, blob);
        assert!(hp.restore(&bad).is_err());
    }

    #[test]
    fn snapshot_without_numerics_stats_is_refused() {
        // The member is as required as the engine's own `numerics_stats`
        // (a blob without it could only come from an `hp-ckpt-v1`
        // document, which the loader refuses by schema).
        let mut hp = HotPotato::new(model_4x4(), HotPotatoConfig::default()).unwrap();
        let blob = hp.snapshot().expect("snapshots");
        let member = ",\"numerics_stats\":[0,0,0]";
        assert!(blob.contains(member), "{blob}");
        let err = hp
            .restore(&blob.replace(member, ""))
            .expect_err("a blob without numerics_stats is refused");
        assert!(err.contains("numerics_stats"), "{err}");
    }
}
