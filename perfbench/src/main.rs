//! The HotPotato benchmark: one command per workload that drives the
//! library entry points users run, checks the results, and prints every
//! metric by name and unit, ending with one JSON line.
//!
//! ```text
//! perfbench --workload <open-light|open-heavy|sweep-fig4a> --seed N
//!           --seconds S --trace <0|1> [--spans FILE]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same inputs untraced and then traced, prints the
//! per-layer metrics and writes the span log to `--spans` at the end.
//!
//! End-to-end host times are scaled to a fixed host speed measured by a
//! reference kernel the benchmark owns (see [`host::Reference`]); the
//! unscaled figures and the scale are printed too. Per-layer figures are
//! unscaled.

mod hook;
mod host;
mod layers;
mod open;
mod output;
mod spans;
mod stats;
mod sweep;
mod workloads;

use std::process::ExitCode;

use output::result_line;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got `{}`",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {} | cpu {} | gemm backend {}",
        host::nproc(),
        host::cpu_model(),
        hp_linalg::Matrix::gemm_backend()
    );
    let (mut metrics, mut verdict, log) = match workloads::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &mut metrics.0 {
        if !m.value.is_finite() {
            verdict.fail(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    if let (Some(path), Some(log)) = (&args.spans, &log) {
        if let Err(e) = std::fs::write(path, log.to_jsonl()) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
        println!("spans: {} written to {path}", log.spans().len());
    }
    metrics.print_table();
    for p in &verdict.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "gate: {} ({} attempted, {} failed)",
        if verdict.correct() { "pass" } else { "FAIL" },
        verdict.attempted,
        verdict.failed
    );
    println!("{}", result_line(&verdict, &metrics));
    ExitCode::SUCCESS
}
