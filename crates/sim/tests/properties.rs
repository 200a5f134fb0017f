//! Property-based invariants of the interval simulation engine.

use hp_faults::FaultPlan;
use hp_manycore::{ArchConfig, Machine};
use hp_sim::codec::{decode_document, pretty};
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{SimConfig, Simulation};
use hp_thermal::ThermalConfig;
use hp_workload::{Benchmark, Job, JobId};
use proptest::prelude::*;

fn benchmarks() -> impl Strategy<Value = Benchmark> {
    prop_oneof![
        Just(Benchmark::Blackscholes),
        Just(Benchmark::Bodytrack),
        Just(Benchmark::Canneal),
        Just(Benchmark::Dedup),
        Just(Benchmark::Fluidanimate),
        Just(Benchmark::Streamcluster),
        Just(Benchmark::Swaptions),
        Just(Benchmark::X264),
    ]
}

fn job_sets() -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec((benchmarks(), 1usize..=4, 0.0..50e-3f64), 1..=3).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (b, threads, arrival))| Job {
                id: JobId(i),
                benchmark: b,
                spec: b.spec(threads),
                arrival,
            })
            .collect()
    })
}

fn run(jobs: Vec<Job>, dt: f64) -> hp_sim::Metrics {
    let machine = Machine::new(ArchConfig {
        grid_width: 4,
        grid_height: 4,
        ..ArchConfig::default()
    })
    .expect("valid config");
    let mut sim = Simulation::new(
        machine,
        ThermalConfig::default(),
        SimConfig {
            dt,
            sched_period: (5.0 * dt).max(500e-6),
            horizon: 300.0,
            ..SimConfig::default()
        },
    )
    .expect("valid sim config");
    sim.run(jobs, &mut PinnedScheduler::new())
        .expect("completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn instructions_conserved(jobs in job_sets()) {
        let expected: u64 = jobs.iter().map(|j| j.spec.total_instructions()).sum();
        let m = run(jobs, 100e-6);
        let retired: u64 = m.jobs.iter().map(|j| j.instructions).sum();
        prop_assert_eq!(retired, expected);
    }

    #[test]
    fn all_jobs_complete_with_records(jobs in job_sets()) {
        let count = jobs.len();
        let m = run(jobs, 100e-6);
        prop_assert_eq!(m.completed_jobs(), count);
        prop_assert_eq!(m.jobs.len(), count);
        for j in &m.jobs {
            prop_assert!(j.started + 1e-12 >= j.arrival);
            prop_assert!(j.completed.expect("completed") > j.started);
        }
    }

    #[test]
    fn energy_and_temperature_physical(jobs in job_sets()) {
        let m = run(jobs, 100e-6);
        prop_assert!(m.energy > 0.0);
        // Idle floor: 16 cores x 0.3 W over the whole run.
        prop_assert!(m.energy >= 16.0 * 0.25 * m.simulated_time);
        prop_assert!(m.peak_temperature >= 45.0);
        prop_assert!(m.peak_temperature < 120.0);
    }

    #[test]
    fn makespan_at_least_critical_path(jobs in job_sets()) {
        // No job can finish faster than its instructions at peak IPS on
        // the best core of an idealized machine.
        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        }).expect("valid config");
        let m = run(jobs.clone(), 100e-6);
        for (job, rec) in jobs.iter().zip(m.jobs.iter()) {
            // Per-thread critical path: the largest single-phase chain.
            let mut critical = 0.0f64;
            for phase in job.spec.phases() {
                let mut worst = 0.0f64;
                for t in 0..job.spec.thread_count() {
                    let w = phase.thread(t);
                    if w.instructions == 0 {
                        continue;
                    }
                    let stack = machine
                        .cpi_stack(&w.work, hp_floorplan::CoreId(5), 4.0)
                        .expect("core in range");
                    worst = worst.max(w.instructions as f64 / stack.ips());
                }
                critical += worst;
            }
            let resp = rec.response_time().expect("completed");
            prop_assert!(
                resp >= critical * 0.95,
                "{}: response {:.4} < critical path {:.4}",
                rec.benchmark, resp, critical
            );
        }
    }

    #[test]
    fn coarser_dt_preserves_outcomes(jobs in job_sets()) {
        // The thermal step is exact, so halving dt must not change
        // results much (only scheduling/phase quantization differs).
        let fine = run(jobs.clone(), 50e-6);
        let coarse = run(jobs, 100e-6);
        let rel = (fine.makespan - coarse.makespan).abs() / coarse.makespan;
        prop_assert!(rel < 0.05, "makespan drifted {rel:.3}");
        prop_assert!((fine.peak_temperature - coarse.peak_temperature).abs() < 1.5);
    }
}

fn plans() -> impl Strategy<Value = FaultPlan> {
    (
        (0u64..u64::MAX, 0.0..2.0f64, 0.0..1.0f64, 1u64..100),
        (0.0..1.0f64, 0.0..1.0f64, 0u64..50),
        (0.0..1.0f64, 0.0..10.0f64, 1u64..50),
    )
        .prop_map(
            |(
                (seed, sigma, stuck_rate, stuck_intervals),
                (dropout_rate, mig_rate, blackout),
                (spike_rate, spike_watts, spike_intervals),
            )| FaultPlan {
                seed,
                sensor_noise_sigma_celsius: sigma,
                sensor_stuck_rate: stuck_rate,
                sensor_stuck_intervals: stuck_intervals,
                sensor_dropout_rate: dropout_rate,
                migration_failure_rate: mig_rate,
                migration_blackout_intervals: blackout,
                power_spike_rate: spike_rate,
                power_spike_watts: spike_watts,
                power_spike_intervals: spike_intervals,
                force_active: seed % 2 == 0,
            },
        )
}

proptest! {
    /// The fault-plan document round-trips every field of an arbitrary
    /// plan.
    #[test]
    fn json_roundtrip_preserves_plan(plan in plans()) {
        let back = decode_document::<FaultPlan>(&pretty(&plan));
        prop_assert_eq!(back, Ok(plan));
    }
}
