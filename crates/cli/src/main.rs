//! `hotpotato-cli` — explore AMD rings, check rotation safety, and run
//! scheduler comparisons from the shell.
//!
//! ```text
//! hotpotato-cli rings    [--grid WxH]
//! hotpotato-cli peak     [--grid WxH] [--ring R] [--tau-ms T] [--watts a,b,...]
//! hotpotato-cli tsp      [--grid WxH] [--active N] [--t-dtm C]
//! hotpotato-cli simulate [--grid WxH] [--scheduler NAME] [--benchmark NAME]
//!                        [--cores N] [--jobs J] [--rate R] [--horizon S]
//!                        [--trace FILE] [--report FILE]
//!                        [--faults PLAN.json] [--fault-seed N]
//!                        [--checkpoint-every S --checkpoint-dir D]
//!                        [--resume-from CKPT.json]
//! hotpotato-cli sweep    --spec SPEC.json [--jobs N] [--out DIR]
//!                        [--resume true] [--cache off]
//!                        [--retries N] [--job-timeout S]
//!                        [--interval-budget N] [--checkpoint-every S]
//! hotpotato-cli validate [--spec SPEC.json] [--faults PLAN.json]
//!                        [--grid WxH] [--thermal default|ill-conditioned]
//!                        [--document FILE]
//! ```
//!
//! Exit codes: 0 success, 1 failure, 2 aborted-with-partials (the
//! simulation stopped mid-run but the partial trace/report was
//! written), 3 sweep finished with failed/panicked/timed-out jobs,
//! 4 sweep finished with quarantined jobs (retry budget exhausted).

mod args;
mod commands;

use std::process::ExitCode;

use args::ParsedArgs;

const USAGE: &str = "\
hotpotato-cli — thermal management for S-NUCA many-cores

USAGE:
  hotpotato-cli rings    [--grid WxH]
  hotpotato-cli peak     [--grid WxH] [--ring R] [--tau-ms T] [--watts a,b,..]
  hotpotato-cli tsp      [--grid WxH] [--active N] [--t-dtm C]
  hotpotato-cli simulate [--grid WxH] [--scheduler NAME] [--benchmark NAME]
                         [--cores N] [--jobs J] [--rate R] [--horizon S]
                         [--trace FILE] [--report FILE]
                         [--faults PLAN.json] [--fault-seed N]
                         [--checkpoint-every S --checkpoint-dir D]
                         [--resume-from CKPT.json]
  hotpotato-cli sweep    --spec SPEC.json [--jobs N] [--out DIR]
                         [--resume true] [--cache off]
                         [--retries N] [--job-timeout S]
                         [--interval-budget N] [--checkpoint-every S]
  hotpotato-cli validate [--spec SPEC.json] [--faults PLAN.json]
                         [--grid WxH] [--thermal default|ill-conditioned]
                         [--document FILE]   (a report, campaign or checkpoint)

SCHEDULERS: hotpotato (default), hybrid, fallback, pcmig, pcgov, tsp, pinned
BENCHMARKS: blackscholes bodytrack canneal dedup fluidanimate
            streamcluster swaptions x264 (or `mixed` with --jobs/--rate)

EXIT CODES: 0 success | 1 failure | 2 simulation aborted, partials written
            3 sweep had failed/panicked/timed-out jobs | 4 sweep had
            quarantined jobs (retry budget exhausted)

EXAMPLES:
  hotpotato-cli rings --grid 8x8
  hotpotato-cli peak --grid 4x4 --ring 0 --tau-ms 0.5 --watts 7,7
  hotpotato-cli simulate --benchmark swaptions --cores 16 --scheduler hybrid
  hotpotato-cli simulate --benchmark mixed --jobs 12 --rate 40 --trace t.csv
  hotpotato-cli simulate --scheduler hotpotato --report report.json
  hotpotato-cli simulate --scheduler fallback --faults plan.json --fault-seed 42
  hotpotato-cli simulate --checkpoint-every 5 --checkpoint-dir ckpt/
  hotpotato-cli simulate --resume-from ckpt/simulate.ckpt.json
  hotpotato-cli sweep --spec sweep.json --jobs 8 --out results/
  hotpotato-cli sweep --spec sweep.json --out results/ --resume true \\
                      --retries 2 --job-timeout 300 --checkpoint-every 5
  hotpotato-cli validate --spec sweep.json --faults plan.json
  hotpotato-cli validate --grid 8x8 --thermal ill-conditioned
  hotpotato-cli validate --document results/campaign.json
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = match ParsedArgs::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command() {
        "rings" => commands::rings(&parsed),
        "peak" => commands::peak(&parsed),
        "tsp" => commands::tsp(&parsed),
        "simulate" => commands::simulate(&parsed),
        "sweep" => commands::sweep(&parsed),
        "validate" => commands::validate(&parsed),
        other => Err(format!("unknown subcommand `{other}`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Aborted-with-partials gets its own exit code: the run
            // failed, but the partial trace/report was written.
            if e.downcast_ref::<commands::AbortedRun>().is_some() {
                return ExitCode::from(2);
            }
            // Sweep health verdicts: 3 = failed/panicked/timed-out jobs,
            // 4 = quarantined jobs (see commands::SweepHealth).
            if let Some(health) = e.downcast_ref::<commands::SweepHealth>() {
                return ExitCode::from(health.exit);
            }
            ExitCode::FAILURE
        }
    }
}
