//! Fig. 4(b) — comparative evaluation with a heterogeneous workload in an
//! open system.
//!
//! A random 20-benchmark multi-program multi-threaded workload arrives as
//! a Poisson process; the arrival rate sweeps the system from under- to
//! over-loaded. The paper reports that HotPotato's gains over PCMig are
//! minimal at the extremes and peak (≈12.27 %) at medium load.

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_experiments::context::{Context, ContextError};
use hp_experiments::plot::ascii_chart;
use hp_experiments::{paper_machine, thermal_model_for_grid, try_run};
use hp_sched::PcMig;
use hp_sim::SimConfig;
use hp_workload::open_poisson;

fn main() -> Result<(), ContextError> {
    let sim_cfg = SimConfig {
        horizon: 600.0,
        ..SimConfig::default()
    };
    let rates = [5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0];
    println!("Fig. 4(b) — heterogeneous 20-job open system, response-time speedup vs arrival rate");
    println!(
        "{:>12} {:>14} {:>14} {:>9}",
        "rate (1/s)", "hotpotato ms", "pcmig ms", "speedup"
    );
    let mut best = f64::NEG_INFINITY;
    let mut speedups = Vec::new();
    // One model, so every run steps on its one eigendecomposition.
    let model = thermal_model_for_grid(8, 8);
    for rate in rates {
        // Average over several seeds to tame placement luck.
        let mut hp_total = 0.0;
        let mut pm_total = 0.0;
        for seed in [7u64, 11, 13] {
            let jobs = open_poisson(20, rate, seed);

            let scenario = |what: &str| format!("fig4b: rate {rate}/s, seed {seed}: {what}");

            let mut hp = HotPotato::new(model.clone(), HotPotatoConfig::default())
                .with_context(|| scenario("HotPotato config"))?;
            let hp_m = try_run(paper_machine(), &model, sim_cfg, jobs.clone(), &mut hp)
                .with_context(|| scenario("hotpotato run"))?;

            let mut pm = PcMig::new(model.clone());
            let pm_m = try_run(paper_machine(), &model, sim_cfg, jobs, &mut pm)
                .with_context(|| scenario("pcmig run"))?;

            hp_total += hp_m
                .mean_response_time()
                .with_context(|| scenario("no hotpotato job completed"))?;
            pm_total += pm_m
                .mean_response_time()
                .with_context(|| scenario("no pcmig job completed"))?;
        }
        let speedup = pm_total / hp_total - 1.0;
        speedups.push(speedup * 100.0);
        best = best.max(speedup);
        println!(
            "{:>12.0} {:>14.1} {:>14.1} {:>8.2}%",
            rate,
            hp_total / 3.0 * 1e3,
            pm_total / 3.0 * 1e3,
            speedup * 100.0
        );
        println!(
            "csv,fig4b,{},{:.4},{:.4},{:.4}",
            rate,
            hp_total / 3.0 * 1e3,
            pm_total / 3.0 * 1e3,
            speedup * 100.0
        );
    }
    println!();
    println!("speedup vs load (x = rate sweep, log-spaced):");
    print!("{}", ascii_chart(&[('*', &speedups)], 56, 8));
    println!();
    println!(
        "peak speedup: {:.2}%  (paper: up to 12.27% at medium load)",
        best * 100.0
    );
    println!("csv,fig4b-summary,{:.4}", best * 100.0);
    Ok(())
}
