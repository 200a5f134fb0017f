//! Exhaustive exploration of the ring-assignment design space.
//!
//! §V of the paper notes the design space for assigning `n_active` threads
//! to `R` AMD rings is combinatorial and finding the performance-optimal
//! thermally-safe schedule is NP-hard, which is why HotPotato is a greedy
//! heuristic. For *small* instances the space can be enumerated outright,
//! which gives an oracle to measure the heuristic against — the
//! "near-optimal" claim, quantified (see the `oracle_gap` experiment and
//! the tests below).
//!
//! Every assignment is priced by the scheduler's own probe,
//! [`RotationPeakSolver::peak_of_rings`], so oracle and heuristic share
//! one cross-ring coupling policy and its superposition evaluator.

use hp_floorplan::CoreId;

use crate::{HotPotatoError, Result, RingRotation, RotationPeakSolver};

/// One thread to place: its estimated power draw and its predicted
/// instructions-per-second on each ring (index = ring).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadDemand {
    /// Estimated power at peak frequency, W.
    pub watts: f64,
    /// Predicted IPS per ring (performance of the ring's cores for this
    /// thread's work point).
    pub ips_per_ring: Vec<f64>,
}

/// The outcome of an exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleResult {
    /// Ring index per thread (same order as the input demands).
    pub assignment: Vec<usize>,
    /// Total predicted IPS of the best thermally safe assignment.
    pub total_ips: f64,
    /// Algorithm-1 peak of that assignment, °C.
    pub peak_celsius: f64,
    /// Number of assignments enumerated.
    pub explored: usize,
}

/// Exhaustively searches all assignments of `demands` threads to rings
/// (respecting ring capacities) for the highest total IPS whose rotation
/// peak stays below `t_dtm − delta`.
///
/// Rotation semantics are the HotPotato scheduler's, through the same
/// probe ([`evaluate_assignment`]): each ring rotates its own threads
/// with period = ring capacity; other rings contribute their
/// time-averaged power.
///
/// Peak evaluations fan out over all available cores with scoped threads
/// (the search dominates the `oracle_gap` experiment's runtime). Results
/// are merged back in enumeration order, so the winner — including
/// tie-breaks, which keep the first enumerated assignment — is identical
/// to a serial scan.
///
/// Returns `None` when no assignment is thermally safe. Complexity is
/// `O(R^k)` peak evaluations — strictly a small-instance oracle.
///
/// # Errors
///
/// Propagates [`evaluate_assignment`] failures, such as a ring listing
/// a core outside the chip.
///
/// # Panics
///
/// Panics if a demand's `ips_per_ring` length differs from the ring count
/// implied by `ring_capacities`.
pub fn exhaustive_best_assignment(
    solver: &RotationPeakSolver,
    ring_cores: &[Vec<usize>],
    demands: &[ThreadDemand],
    tau: f64,
    idle_power: f64,
    t_dtm: f64,
    delta: f64,
) -> Result<Option<OracleResult>> {
    let rings = ring_cores.len();
    for d in demands {
        assert_eq!(
            d.ips_per_ring.len(),
            rings,
            "demand must predict IPS for every ring"
        );
    }
    let feasible = feasible_assignments(ring_cores, demands.len());
    let peaks = evaluate_peaks_parallel(solver, ring_cores, demands, &feasible, tau, idle_power)?;

    // Serial merge in enumeration order: same winner and same tie-breaking
    // ("strictly greater replaces", so the first enumerated assignment
    // wins ties) as the original sequential scan.
    let explored = feasible.len();
    let mut best: Option<OracleResult> = None;
    for (assignment, &peak) in feasible.iter().zip(&peaks) {
        if peak + delta < t_dtm {
            let total_ips: f64 = demands
                .iter()
                .zip(assignment)
                .map(|(d, &r)| d.ips_per_ring[r])
                .sum();
            if best.as_ref().is_none_or(|b| total_ips > b.total_ips) {
                best = Some(OracleResult {
                    assignment: assignment.clone(),
                    total_ips,
                    peak_celsius: peak,
                    explored,
                });
            }
        }
    }
    Ok(best)
}

/// Every assignment of `k` threads to the rings of `ring_cores` that
/// respects the ring capacities, in odometer order (thread 0 varies
/// fastest).
fn feasible_assignments(ring_cores: &[Vec<usize>], k: usize) -> Vec<Vec<usize>> {
    let rings = ring_cores.len();
    let mut feasible: Vec<Vec<usize>> = Vec::new();
    let mut assignment = vec![0usize; k];
    'enumerate: loop {
        let mut counts = vec![0usize; rings];
        for &r in &assignment {
            counts[r] += 1;
        }
        if counts
            .iter()
            .zip(ring_cores)
            .all(|(&c, cores)| c <= cores.len())
        {
            feasible.push(assignment.clone());
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == k {
                break 'enumerate;
            }
            assignment[i] += 1;
            if assignment[i] < rings {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
    feasible
}

/// Algorithm-1 peaks for a list of assignments, fanned out over scoped
/// threads sharing the solver. The returned vector is index-aligned with
/// `assignments` regardless of thread scheduling.
///
/// Concurrency contract: the workers only take `&RotationPeakSolver`
/// (whose interior mutability is confined to its runtime's
/// poison-tolerant ledger, one mutex over caches and tallies) and
/// disjoint `&[Vec<usize>]` chunks, so no data race is
/// possible; `std::thread::scope` guarantees every worker is joined
/// before the borrowed inputs go out of scope. Results are pushed in
/// spawn order, which is what makes the merge — and therefore the
/// oracle's tie-breaking — deterministic. A panic inside a worker is
/// re-raised on the calling thread via `resume_unwind`, never swallowed.
fn evaluate_peaks_parallel(
    solver: &RotationPeakSolver,
    ring_cores: &[Vec<usize>],
    demands: &[ThreadDemand],
    assignments: &[Vec<usize>],
    tau: f64,
    idle_power: f64,
) -> Result<Vec<f64>> {
    if assignments.is_empty() {
        return Ok(Vec::new());
    }
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(assignments.len());
    let chunk_len = assignments.len().div_ceil(workers);
    let mut chunk_results: Vec<Result<Vec<f64>>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|a| {
                            evaluate_assignment(solver, ring_cores, demands, a, tau, idle_power)
                        })
                        .collect::<Result<Vec<f64>>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(chunk) => chunk_results.push(chunk),
                // Forward a worker panic to the caller instead of
                // papering over it with a second panic site.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut peaks = Vec::with_capacity(assignments.len());
    for chunk in chunk_results {
        peaks.extend(chunk?);
    }
    Ok(peaks)
}

/// Algorithm-1 peak for an explicit thread→ring assignment: thread `i`
/// draws `demands[i].watts` on ring `assignment[i]`, the threads of a
/// ring spread over its slots (thread `j` of `m` on slot `j·δ/m`, in
/// input order), each occupied ring rotating with epoch `tau` while the
/// others contribute their averaged power — one
/// [`RotationPeakSolver::peak_of_rings`] probe, the one the HotPotato
/// scheduler makes.
///
/// # Errors
///
/// * [`HotPotatoError::InvalidAssignment`] if `assignment` and `demands`
///   differ in length, a thread names a ring that `ring_cores` does not
///   have, a ring holds more threads than it has cores, or the probe
///   rejects a ring (a core outside the chip or in two rings).
/// * Otherwise whatever the probe returns.
pub fn evaluate_assignment(
    solver: &RotationPeakSolver,
    ring_cores: &[Vec<usize>],
    demands: &[ThreadDemand],
    assignment: &[usize],
    tau: f64,
    idle_power: f64,
) -> Result<f64> {
    if assignment.len() != demands.len() {
        return Err(HotPotatoError::InvalidAssignment(
            "assignment and demands differ in length",
        ));
    }
    if assignment.iter().any(|&r| r >= ring_cores.len()) {
        return Err(HotPotatoError::InvalidAssignment(
            "a thread is assigned to a ring that does not exist",
        ));
    }
    let mut rings = Vec::with_capacity(ring_cores.len());
    for (r, cores) in ring_cores.iter().enumerate() {
        let members: Vec<f64> = demands
            .iter()
            .zip(assignment)
            .filter(|(_, &a)| a == r)
            .map(|(d, _)| d.watts)
            .collect();
        let delta = cores.len();
        if members.len() > delta {
            return Err(HotPotatoError::InvalidAssignment(
                "a ring holds more threads than it has cores",
            ));
        }
        if delta == 0 {
            continue; // a ring without cores holds no thread and no heat
        }
        let mut ring = RingRotation::new(cores.iter().copied().map(CoreId).collect());
        for (j, &watts) in members.iter().enumerate() {
            // Maximal separation: distinct slots because m ≤ δ.
            ring.occupy(j * delta / members.len(), watts);
        }
        rings.push(ring);
    }
    solver.peak_of_rings(&rings, |watts| watts, idle_power, tau, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_floorplan::GridFloorplan;
    use hp_thermal::{RcThermalModel, ThermalConfig};

    fn solver() -> RotationPeakSolver {
        let model = RcThermalModel::new(
            &GridFloorplan::new(4, 4).expect("grid"),
            &ThermalConfig::default(),
        )
        .expect("valid config");
        RotationPeakSolver::new(model).expect("decomposes")
    }

    fn rings_4x4() -> Vec<Vec<usize>> {
        let fp = GridFloorplan::new(4, 4).expect("grid");
        fp.amd_rings()
            .iter()
            .map(|r| r.cores().iter().map(|c| c.index()).collect())
            .collect()
    }

    fn demand(watts: f64, ips: [f64; 3]) -> ThreadDemand {
        ThreadDemand {
            watts,
            ips_per_ring: ips.to_vec(),
        }
    }

    #[test]
    fn cool_thread_lands_on_the_fastest_ring() {
        let s = solver();
        let demands = vec![demand(2.0, [3.0, 2.5, 2.0])];
        let best = exhaustive_best_assignment(&s, &rings_4x4(), &demands, 0.5e-3, 0.3, 70.0, 1.0)
            .expect("search runs")
            .expect("safe assignment exists");
        assert_eq!(best.assignment, vec![0], "inner ring is fastest and safe");
        assert_eq!(best.total_ips, 3.0);
        assert!(best.explored >= 3);
    }

    #[test]
    fn unsafe_everywhere_returns_none() {
        let s = solver();
        // Four 9 W threads on every ring violate any threshold of 50 C.
        let demands = vec![
            demand(9.0, [1.0, 1.0, 1.0]),
            demand(9.0, [1.0, 1.0, 1.0]),
            demand(9.0, [1.0, 1.0, 1.0]),
            demand(9.0, [1.0, 1.0, 1.0]),
        ];
        let best = exhaustive_best_assignment(&s, &rings_4x4(), &demands, 0.5e-3, 0.3, 50.0, 1.0)
            .expect("search runs");
        assert!(best.is_none());
    }

    #[test]
    fn hot_pair_splits_or_spreads_when_needed() {
        let s = solver();
        // Two hot threads: inner-ring rotation keeps them safe, so the
        // oracle should still prefer ring 0 for both (IPS dominates).
        let demands = vec![demand(7.0, [3.0, 2.5, 2.0]), demand(7.0, [3.0, 2.5, 2.0])];
        let best = exhaustive_best_assignment(&s, &rings_4x4(), &demands, 0.5e-3, 0.3, 70.0, 1.0)
            .expect("search runs")
            .expect("safe assignment exists");
        assert_eq!(best.assignment, vec![0, 0]);
        assert!(best.peak_celsius < 69.0);
    }

    #[test]
    fn capacity_constraints_respected() {
        let s = solver();
        // Six cool threads cannot all fit the 4-slot inner ring.
        let demands: Vec<ThreadDemand> = (0..6).map(|_| demand(1.0, [3.0, 2.5, 2.0])).collect();
        let best = exhaustive_best_assignment(&s, &rings_4x4(), &demands, 0.5e-3, 0.3, 70.0, 1.0)
            .expect("search runs")
            .expect("safe assignment exists");
        let inner = best.assignment.iter().filter(|&&r| r == 0).count();
        assert!(inner <= 4, "inner ring holds at most 4 threads");
        assert_eq!(best.total_ips, 4.0 * 3.0 + 2.0 * 2.5);
    }

    #[test]
    fn evaluate_assignment_matches_oracle_peak() {
        let s = solver();
        let rings = rings_4x4();
        let demands = vec![demand(7.0, [3.0, 2.5, 2.0])];
        let best = exhaustive_best_assignment(&s, &rings, &demands, 0.5e-3, 0.3, 70.0, 1.0)
            .expect("search runs")
            .expect("safe");
        let peak = evaluate_assignment(&s, &rings, &demands, &best.assignment, 0.5e-3, 0.3)
            .expect("evaluates");
        assert!((peak - best.peak_celsius).abs() < 1e-12);
    }

    #[test]
    fn an_overfull_ring_is_refused() {
        // Five threads on the 4-slot centre ring once priced as four.
        let demands: Vec<ThreadDemand> = (0..5).map(|_| demand(7.0, [3.0, 2.5, 2.0])).collect();
        let err = evaluate_assignment(&solver(), &rings_4x4(), &demands, &[0; 5], 0.5e-3, 0.3)
            .expect_err("five threads, four slots");
        assert!(matches!(err, HotPotatoError::InvalidAssignment(_)), "{err}");
    }

    #[test]
    fn a_thread_on_a_missing_ring_is_refused() {
        // Once priced as the idle chip.
        let demands = vec![demand(7.0, [3.0, 2.5, 2.0])];
        let err = evaluate_assignment(&solver(), &rings_4x4(), &demands, &[99], 0.5e-3, 0.3)
            .expect_err("no ring 99");
        assert!(matches!(err, HotPotatoError::InvalidAssignment(_)), "{err}");
    }

    #[test]
    fn an_assignment_shorter_than_the_demands_is_refused() {
        // Once priced as its first thread alone.
        let demands: Vec<ThreadDemand> = (0..5).map(|_| demand(7.0, [3.0, 2.5, 2.0])).collect();
        let err = evaluate_assignment(&solver(), &rings_4x4(), &demands, &[0], 0.5e-3, 0.3)
            .expect_err("one ring for five threads");
        assert!(matches!(err, HotPotatoError::InvalidAssignment(_)), "{err}");
    }

    #[test]
    fn a_ring_with_a_core_off_the_chip_is_refused() {
        // Once an index-out-of-bounds panic.
        let mut rings = rings_4x4();
        rings[1][0] = 99;
        let demands = vec![demand(7.0, [3.0, 2.5, 2.0])];
        let err = evaluate_assignment(&solver(), &rings, &demands, &[1], 0.5e-3, 0.3)
            .expect_err("core 99 on a 16-core chip");
        assert!(matches!(err, HotPotatoError::InvalidAssignment(_)), "{err}");
        // The search reports it instead of panicking in a worker.
        let search =
            exhaustive_best_assignment(&solver(), &rings, &demands, 0.5e-3, 0.3, 70.0, 1.0);
        assert!(search.is_err());
    }

    #[test]
    fn concurrent_search_tallies_match_a_serial_scan() {
        // The workers share one solver; every tally must come out exactly
        // as if a fresh solver had evaluated the same assignments one
        // after another.
        let shared = solver();
        let rings = rings_4x4();
        let demands: Vec<ThreadDemand> = (0..5)
            .map(|i| demand(1.0 + f64::from(i), [3.0, 2.5, 2.0]))
            .collect();
        exhaustive_best_assignment(&shared, &rings, &demands, 0.5e-3, 0.3, 70.0, 1.0)
            .expect("search runs");
        let serial = solver();
        let feasible = feasible_assignments(&rings, demands.len());
        for a in &feasible {
            evaluate_assignment(&serial, &rings, &demands, a, 0.5e-3, 0.3).expect("evaluates");
        }
        let stats = shared.runtime().stats();
        assert_eq!(stats, serial.runtime().stats());
        assert_eq!(shared.runtime().numerics(), serial.runtime().numerics());
        assert_eq!(stats.batch_calls, feasible.len() as u64);
        // Probes read cached rotation kernels and look up no decay data.
        assert_eq!((stats.decay_cache_hits, stats.decay_cache_misses), (0, 0));
    }
}
