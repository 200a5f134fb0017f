//! Ablation sweeps over the design choices DESIGN.md §5 calls out:
//!
//! 1. rotation interval τ (fixed values vs. the adaptive default),
//! 2. thermal-headroom hysteresis Δ,
//! 3. DTM threshold,
//! 4. migration cost (flush latency),
//! 5. DTM scope (chip-wide crash vs per-core throttling),
//! 6. cold vs pre-warmed chip (where Algorithm 1's d→∞ cycle is exact),
//! 7. rotation disabled entirely (placement-only HotPotato),
//! 8. Algorithm-1 evaluation strategy (serial per-candidate loop vs the
//!    batched GEMM kernel the scheduler and the oracle now use).
//!
//! Each sweep runs the Fig. 2 motivational workload (2-thread
//! *blackscholes* on the 16-core chip) plus a loaded 16-core batch, and
//! reports response time / makespan, peak temperature and DTM pressure.

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_experiments::context::{Context, ContextError};
use hp_experiments::{motivational_machine, thermal_model_for_grid, try_run};
use hp_manycore::{ArchConfig, Machine, MigrationModel};
use hp_sched::PcMig;
use hp_sim::{DtmScope, Metrics, SimConfig};
use hp_workload::{closed_batch, Benchmark, Job, JobId};

fn blackscholes2() -> Vec<Job> {
    vec![Job {
        id: JobId(0),
        benchmark: Benchmark::Blackscholes,
        spec: Benchmark::Blackscholes.spec(2),
        arrival: 0.0,
    }]
}

fn main() -> Result<(), ContextError> {
    let sim = SimConfig {
        horizon: 60.0,
        ..SimConfig::default()
    };
    // Every sweep runs on the 4×4 chip: one model, one eigendecomposition.
    let model = thermal_model_for_grid(4, 4);
    let run_hp = |machine, sim, jobs, cfg| -> Result<Metrics, ContextError> {
        let mut hp = HotPotato::new(model.clone(), cfg).context("building HotPotato")?;
        try_run(machine, &model, sim, jobs, &mut hp)
    };

    println!("Ablation 1 — fixed rotation interval tau (2-thread blackscholes, 16 cores)");
    println!(
        "{:>12} {:>12} {:>8} {:>6} {:>11}",
        "tau", "resp ms", "peak C", "DTM", "migrations"
    );
    for tau in [0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3] {
        let cfg = HotPotatoConfig {
            tau_levels: vec![tau],
            initial_tau_index: 0,
            ..HotPotatoConfig::default()
        };
        let m = run_hp(motivational_machine(), sim, blackscholes2(), cfg)
            .with_context(|| format!("ablation 1: fixed tau {} ms", tau * 1e3))?;
        println!(
            "{:>10.2}ms {:>12.1} {:>8.1} {:>6} {:>11}",
            tau * 1e3,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.migrations
        );
        println!(
            "csv,ablation-tau,{},{:.4},{:.2},{},{}",
            tau,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.migrations
        );
    }
    {
        let m = run_hp(
            motivational_machine(),
            sim,
            blackscholes2(),
            HotPotatoConfig::default(),
        )
        .context("ablation 1: adaptive tau")?;
        println!(
            "{:>12} {:>12.1} {:>8.1} {:>6} {:>11}",
            "adaptive",
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.migrations
        );
        println!(
            "csv,ablation-tau,adaptive,{:.4},{:.2},{},{}",
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.migrations
        );
    }

    println!();
    println!("Ablation 2 — headroom hysteresis delta (full 16-core x264 batch)");
    println!(
        "{:>12} {:>12} {:>8} {:>6} {:>11}",
        "delta C", "makespan ms", "peak C", "DTM", "migrations"
    );
    for delta in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let cfg = HotPotatoConfig {
            delta_headroom: delta,
            ..HotPotatoConfig::default()
        };
        let jobs = closed_batch(Benchmark::X264, 16, 5);
        let m = run_hp(motivational_machine(), sim, jobs, cfg)
            .with_context(|| format!("ablation 2: delta {delta} C"))?;
        println!(
            "{:>12.2} {:>12.1} {:>8.1} {:>6} {:>11}",
            delta,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.migrations
        );
        println!(
            "csv,ablation-delta,{},{:.4},{:.2},{},{}",
            delta,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.migrations
        );
    }

    println!();
    println!("Ablation 3 — DTM threshold (2-thread blackscholes)");
    println!(
        "{:>12} {:>12} {:>8} {:>6}",
        "t_dtm C", "resp ms", "peak C", "DTM"
    );
    for t_dtm in [60.0, 65.0, 70.0, 75.0, 80.0] {
        let sim_t = SimConfig { t_dtm, ..sim };
        let m = run_hp(
            motivational_machine(),
            sim_t,
            blackscholes2(),
            HotPotatoConfig::default(),
        )
        .with_context(|| format!("ablation 3: t_dtm {t_dtm} C"))?;
        println!(
            "{:>12.0} {:>12.1} {:>8.1} {:>6}",
            t_dtm,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals
        );
        println!(
            "csv,ablation-tdtm,{},{:.4},{:.2},{}",
            t_dtm,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals
        );
    }

    println!();
    println!("Ablation 4 — migration flush cost (2-thread blackscholes, fixed tau 0.5 ms)");
    println!(
        "{:>12} {:>12} {:>8} {:>11}",
        "flush us", "resp ms", "peak C", "migrations"
    );
    for flush_us in [0.0, 4.0, 8.0, 20.0, 50.0, 100.0] {
        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            migration: MigrationModel {
                flush_us,
                ..MigrationModel::default()
            },
            ..ArchConfig::default()
        })
        .with_context(|| format!("ablation 4: arch config with flush {flush_us} us"))?;
        let cfg = HotPotatoConfig {
            tau_levels: vec![0.5e-3],
            initial_tau_index: 0,
            ..HotPotatoConfig::default()
        };
        let m = run_hp(machine, sim, blackscholes2(), cfg)
            .with_context(|| format!("ablation 4: flush {flush_us} us"))?;
        println!(
            "{:>12.0} {:>12.1} {:>8.1} {:>11}",
            flush_us,
            m.makespan * 1e3,
            m.peak_temperature,
            m.migrations
        );
        println!(
            "csv,ablation-flush,{},{:.4},{:.2},{}",
            flush_us,
            m.makespan * 1e3,
            m.peak_temperature,
            m.migrations
        );
    }

    println!();
    println!("Ablation 5 — DTM scope (full 16-core swaptions batch under pure rotation)");
    for (label, scope) in [
        ("chip-wide", DtmScope::Chip),
        ("per-core", DtmScope::PerCore),
    ] {
        let sim_s = SimConfig {
            dtm_scope: scope,
            ..sim
        };
        let jobs = closed_batch(Benchmark::Swaptions, 16, 1);
        let m = run_hp(
            motivational_machine(),
            sim_s,
            jobs,
            HotPotatoConfig::default(),
        )
        .with_context(|| format!("ablation 5: {label} DTM"))?;
        println!(
            "{:<10} makespan {:>7.1} ms, peak {:>5.1} C, DTM {:>5}, avg freq {:>5.2} GHz",
            label,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.avg_frequency_ghz
        );
        println!(
            "csv,ablation-dtm,{},{:.4},{:.2},{},{:.4}",
            label,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.avg_frequency_ghz
        );
    }

    println!();
    println!("Ablation 6 — cold vs pre-warmed chip (16-core x264 batch, HotPotato vs PCMig)");
    for (label, prewarm) in [("cold start", None), ("pre-warmed 2.5 W", Some(2.5))] {
        let sim_w = SimConfig {
            prewarm_power: prewarm,
            ..sim
        };
        let jobs = closed_batch(Benchmark::X264, 16, 5);
        let hp_m = run_hp(
            motivational_machine(),
            sim_w,
            jobs.clone(),
            HotPotatoConfig::default(),
        )
        .with_context(|| format!("ablation 6: {label}, hotpotato"))?;
        let mut pm = PcMig::new(model.clone());
        let pm_m = try_run(motivational_machine(), &model, sim_w, jobs, &mut pm)
            .with_context(|| format!("ablation 6: {label}, pcmig"))?;
        println!(
            "{:<18} hotpotato {:>6.1} ms vs pcmig {:>6.1} ms ({:+.2} %), peaks {:.1}/{:.1} C",
            label,
            hp_m.makespan * 1e3,
            pm_m.makespan * 1e3,
            (pm_m.makespan / hp_m.makespan - 1.0) * 100.0,
            hp_m.peak_temperature,
            pm_m.peak_temperature
        );
        println!(
            "csv,ablation-prewarm,{},{:.4},{:.4},{:.2},{:.2}",
            prewarm.map_or(0.0, |p| p),
            hp_m.makespan * 1e3,
            pm_m.makespan * 1e3,
            hp_m.peak_temperature,
            pm_m.peak_temperature
        );
    }

    println!();
    println!("Ablation 7 — rotation disabled (placement-only HotPotato, DTM as backstop)");
    for (label, rotation) in [("rotation on", true), ("rotation off", false)] {
        let cfg = HotPotatoConfig {
            rotation_enabled: rotation,
            ..HotPotatoConfig::default()
        };
        let m = run_hp(motivational_machine(), sim, blackscholes2(), cfg)
            .with_context(|| format!("ablation 7: {label}"))?;
        println!(
            "{:<14} resp {:>7.1} ms, peak {:>5.1} C, DTM {:>4}, migrations {:>4}",
            label,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.migrations
        );
        println!(
            "csv,ablation-rotation,{},{:.4},{:.2},{},{}",
            rotation,
            m.makespan * 1e3,
            m.peak_temperature,
            m.dtm_intervals,
            m.migrations
        );
    }

    println!();
    println!("Ablation 8 — Algorithm-1 evaluation strategy (16 candidate rotations, 16-core chip)");
    {
        use hotpotato::{EpochPowerSequence, RotationPeakSolver};
        let solver =
            RotationPeakSolver::new(model.clone()).context("ablation 8: solver decomposition")?;
        // 16 candidate rotations: two 7 W threads on the centre ring, all
        // relative spacings and four τ levels.
        let ring = [5usize, 6, 10, 9];
        let seqs: Vec<EpochPowerSequence> = (0..16)
            .map(|i| {
                let sep = 1 + i % 4;
                let tau = [0.25e-3, 0.5e-3, 1e-3, 2e-3][i / 4];
                let epochs = (0..4)
                    .map(|e| {
                        let mut p = hp_linalg::Vector::constant(16, hp_power::IDLE_WATTS);
                        p[ring[e % 4]] = 7.0;
                        p[ring[(e + sep) % 4]] = 7.0;
                        p
                    })
                    .collect();
                EpochPowerSequence::new(tau, epochs)
                    .with_context(|| format!("ablation 8: candidate {i}"))
            })
            .collect::<Result<_, _>>()?;
        let reps = 200;
        let t0 = std::time::Instant::now();
        let mut serial = Vec::new();
        for _ in 0..reps {
            serial = seqs
                .iter()
                .map(|s| {
                    solver
                        .peak_celsius(s)
                        .context("ablation 8: serial evaluation")
                })
                .collect::<Result<_, _>>()?;
        }
        let t_serial = t0.elapsed() / reps;
        let t0 = std::time::Instant::now();
        let mut batch = Vec::new();
        for _ in 0..reps {
            batch = solver
                .peak_celsius_many(&seqs)
                .context("ablation 8: batched evaluation")?;
        }
        let t_batch = t0.elapsed() / reps;
        let worst = serial
            .iter()
            .zip(&batch)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "serial {:>9.1?}  batch {:>9.1?}  speedup {:>4.1}x  worst |diff| {:.1e} C",
            t_serial,
            t_batch,
            t_serial.as_secs_f64() / t_batch.as_secs_f64(),
            worst
        );
        println!(
            "csv,ablation-batch,16,{:.6},{:.6},{:.3e}",
            t_serial.as_secs_f64(),
            t_batch.as_secs_f64(),
            worst
        );
    }
    Ok(())
}
