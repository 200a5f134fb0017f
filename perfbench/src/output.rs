//! The metrics a run prints and the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builder for a run's metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// Prints every metric as a readable line.
    pub fn print_table(&self) {
        for m in &self.0 {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

/// A run's verdict: the correctness gate plus the job tally behind
/// `failed_frac`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Jobs (simulated jobs, or campaign jobs for a sweep) attempted.
    pub attempted: u64,
    /// Attempted jobs that did not complete or failed a check.
    pub failed: u64,
    /// Every check that failed, in order.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Records a failed check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// The last line of standard output: one JSON object.
pub fn result_line(verdict: &Verdict, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.correct(),
        verdict.attempted,
        verdict.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips,
        // i.e. every digit measured.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
