//! Quantifying the paper's "near-optimal" claim (§V).
//!
//! Determining the performance-optimal thermally-safe ring assignment is
//! NP-hard, so HotPotato uses a greedy heuristic (Algorithm 2). On the
//! 16-core chip the design space is small enough to enumerate, giving an
//! oracle: for a set of thread mixes, compare the total predicted IPS of
//! the greedy assignment (Algorithm 2's placement rule: innermost
//! thermally-safe ring, per thread, in arrival order) with the exhaustive
//! optimum.

use hotpotato::design_space::{evaluate_assignment, exhaustive_best_assignment, ThreadDemand};
use hotpotato::RotationPeakSolver;
use hp_experiments::motivational_machine;
use hp_floorplan::CoreId;
use hp_manycore::Machine;
use hp_power::IDLE_WATTS;
use hp_thermal::{RcThermalModel, ThermalConfig};
use hp_workload::Benchmark;

const T_DTM: f64 = 70.0;
const DELTA: f64 = 1.0;
const TAU: f64 = 0.5e-3;

fn demand_for(machine: &Machine, rings: &[Vec<usize>], b: Benchmark) -> ThreadDemand {
    let ladder = &machine.config().dvfs;
    let work = b.work_point();
    let representative = rings
        .iter()
        .map(|cores| CoreId(cores[0]))
        .collect::<Vec<_>>();
    let ips_per_ring: Vec<f64> = representative
        .iter()
        .map(|&c| {
            machine
                .cpi_stack_at_level(&work, c, ladder.max_level())
                .expect("core in range")
                .ips()
                / 1e9
        })
        .collect();
    let stack = machine
        .cpi_stack_at_level(&work, representative[0], ladder.max_level())
        .expect("core in range");
    let watts = machine.core_power(&stack, ladder.max_level(), T_DTM);
    ThreadDemand {
        watts,
        ips_per_ring,
    }
}

/// Algorithm 2's placement rule: per thread (arrival order), innermost
/// ring with free capacity whose peak stays under `T_DTM − Δ`; best-effort
/// coolest ring otherwise.
fn greedy_assignment(
    solver: &RotationPeakSolver,
    rings: &[Vec<usize>],
    demands: &[ThreadDemand],
) -> Vec<usize> {
    let mut assignment: Vec<usize> = Vec::new();
    for i in 0..demands.len() {
        let mut counts = vec![0usize; rings.len()];
        for &r in &assignment {
            counts[r] += 1;
        }
        let mut chosen = None;
        let mut fallback: Option<(usize, f64)> = None;
        for (r, cores) in rings.iter().enumerate() {
            if counts[r] >= cores.len() {
                continue;
            }
            let mut trial = assignment.clone();
            trial.push(r);
            let peak = evaluate_assignment(solver, rings, &demands[..=i], &trial, TAU, IDLE_WATTS)
                .expect("evaluates");
            if peak + DELTA < T_DTM {
                chosen = Some(r);
                break;
            }
            if fallback.is_none_or(|(_, p)| peak < p) {
                fallback = Some((r, peak));
            }
        }
        assignment.push(chosen.unwrap_or_else(|| fallback.expect("some ring has room").0));
    }
    assignment
}

fn main() {
    let machine = motivational_machine();
    let model = RcThermalModel::new(machine.floorplan(), &ThermalConfig::default())
        .expect("valid thermal config");
    let solver = RotationPeakSolver::new(model).expect("decomposes");
    let rings: Vec<Vec<usize>> = machine
        .rings()
        .iter()
        .map(|r| r.cores().iter().map(|c| c.index()).collect())
        .collect();

    let scenarios: Vec<(&str, Vec<Benchmark>)> = vec![
        ("2x swaptions", vec![Benchmark::Swaptions; 2]),
        ("4x swaptions", vec![Benchmark::Swaptions; 4]),
        (
            "2 swaptions + 2 canneal",
            vec![
                Benchmark::Swaptions,
                Benchmark::Swaptions,
                Benchmark::Canneal,
                Benchmark::Canneal,
            ],
        ),
        (
            "mixed quartet",
            vec![
                Benchmark::Swaptions,
                Benchmark::Blackscholes,
                Benchmark::Streamcluster,
                Benchmark::Canneal,
            ],
        ),
        (
            "hot sextet",
            vec![
                Benchmark::Swaptions,
                Benchmark::Swaptions,
                Benchmark::Blackscholes,
                Benchmark::Blackscholes,
                Benchmark::X264,
                Benchmark::X264,
            ],
        ),
    ];

    println!("Oracle gap — greedy Algorithm 2 placement vs exhaustive optimum (16-core chip)");
    println!(
        "{:<24} {:>12} {:>12} {:>9} {:>10} {:>10}",
        "scenario", "greedy GIPS", "oracle GIPS", "gap", "explored", "search"
    );
    for (label, benchmarks) in scenarios {
        let demands: Vec<ThreadDemand> = benchmarks
            .iter()
            .map(|&b| demand_for(&machine, &rings, b))
            .collect();
        let greedy = greedy_assignment(&solver, &rings, &demands);
        let greedy_ips: f64 = demands
            .iter()
            .zip(&greedy)
            .map(|(d, &r)| d.ips_per_ring[r])
            .sum();
        // The exhaustive sweep fans out over all cores (batched Algorithm-1
        // evaluations inside); wall-clock makes the oracle's cost visible
        // next to its answer.
        let t0 = std::time::Instant::now();
        let oracle =
            exhaustive_best_assignment(&solver, &rings, &demands, TAU, IDLE_WATTS, T_DTM, DELTA)
                .expect("search runs");
        let search = t0.elapsed();
        match oracle {
            Some(best) => {
                let gap = (1.0 - greedy_ips / best.total_ips) * 100.0;
                println!(
                    "{:<24} {:>12.2} {:>12.2} {:>8.2}% {:>10} {:>8.1?}",
                    label, greedy_ips, best.total_ips, gap, best.explored, search
                );
                println!(
                    "csv,oracle-gap,{},{:.4},{:.4},{:.4},{},{:.6}",
                    label.replace(' ', "-"),
                    greedy_ips,
                    best.total_ips,
                    gap,
                    best.explored,
                    search.as_secs_f64()
                );
            }
            None => println!("{label:<24} no thermally safe assignment exists"),
        }
    }
}
