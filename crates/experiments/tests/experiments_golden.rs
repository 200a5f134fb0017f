//! The experiments golden: every deterministic `csv,` line the experiment
//! binaries print, pinned in `tests/golden/experiments.csv`.
//!
//! Wall-clock data stays out of it: the `hook_overhead` lines, the
//! `overhead` binary, the `ablation-batch` line and the last column of
//! the `oracle-gap` lines (the exhaustive search's time). Text and
//! integer fields must match exactly. A decimal field may differ by one
//! unit in its last printed digit, enough for a rounding flip but not
//! for a changed scheduling decision.
//!
//! The binaries take ~15 s in release, so the debug tier-1 run skips
//! this test. Run it, or regenerate the golden after an intentional
//! change, with:
//!
//! ```sh
//! cargo test --release -p hp-experiments --test experiments_golden -- --ignored
//! GOLDEN_REGEN=1 cargo test --release -p hp-experiments --test experiments_golden -- --ignored
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The binaries, in the order their lines appear in the golden.
const BINARIES: [(&str, &str); 8] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4a", env!("CARGO_BIN_EXE_fig4a")),
    ("fig4b", env!("CARGO_BIN_EXE_fig4b")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("oracle_gap", env!("CARGO_BIN_EXE_oracle_gap")),
    ("stacked3d", env!("CARGO_BIN_EXE_stacked3d")),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/experiments.csv")
}

/// The deterministic `csv,` lines of one binary's stdout.
fn deterministic_lines(stdout: &str) -> impl Iterator<Item = &str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("csv,"))
        .filter(|l| !l.starts_with("csv,hook_overhead,") && !l.starts_with("csv,ablation-batch,"))
        .map(|l| match (l.starts_with("csv,oracle-gap,"), l.rfind(',')) {
            (true, Some(timing)) => &l[..timing],
            _ => l,
        })
}

/// Runs every binary and collects its deterministic lines.
fn run_all() -> String {
    let mut csv = String::new();
    for (name, exe) in BINARIES {
        let out = Command::new(exe)
            .output()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        for line in deterministic_lines(&stdout) {
            csv.push_str(line);
            csv.push('\n');
        }
    }
    csv
}

/// Whether a printed field matches its golden: exactly, or, for two
/// decimals with the same number of digits after the point, within one
/// unit of the last digit.
fn field_matches(expected: &str, actual: &str) -> bool {
    if expected == actual {
        return true;
    }
    let digits = |s: &str| s.split_once('.').map(|(_, frac)| frac.len());
    match (
        digits(expected),
        expected.parse::<f64>(),
        actual.parse::<f64>(),
    ) {
        (Some(d), Ok(e), Ok(a)) if digits(actual) == Some(d) => {
            let unit = 10f64.powi(-i32::try_from(d).expect("a printed width"));
            (e - a).abs() <= unit * (1.0 + 1e-9)
        }
        _ => false,
    }
}

fn line_matches(expected: &str, actual: &str) -> bool {
    let (e, a): (Vec<&str>, Vec<&str>) =
        (expected.split(',').collect(), actual.split(',').collect());
    e.len() == a.len() && e.iter().zip(&a).all(|(e, a)| field_matches(e, a))
}

#[test]
#[ignore = "runs every experiment binary, ~15 s in release: run with --ignored"]
fn experiments_match_the_golden() {
    let actual = run_all();
    let path = golden_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        fs::write(&path, &actual).expect("write the experiments golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    let (expected, actual): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    let mismatches: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| !line_matches(e, a))
        .map(|(e, a)| format!("  golden: {e}\n  now:    {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == actual.len(),
        "{} of {} lines differ ({} golden lines, {} now):\n{}",
        mismatches.len(),
        expected.len(),
        expected.len(),
        actual.len(),
        mismatches.join("\n")
    );
}

#[test]
fn fields_match_exactly_or_within_one_printed_unit() {
    assert!(field_matches("pcmig", "pcmig"));
    assert!(!field_matches("pcmig", "pcgov"));
    assert!(!field_matches("218", "219"), "integers are exact");
    assert!(field_matches("78.1372", "78.1373"));
    assert!(field_matches("-0.0001", "0.0000"));
    assert!(!field_matches("78.1372", "78.1374"));
    assert!(!field_matches("78.1372", "78.137"), "same width only");
    assert!(line_matches(
        "csv,fig4b,160,79.0738,78.1738,-1.1382",
        "csv,fig4b,160,79.0739,78.1738,-1.1382"
    ));
    assert!(!line_matches(
        "csv,fig4b,160,79.0738,78.1738,-1.1382",
        "csv,fig4b,160,79.0738,78.1372,-1.1845"
    ));
    assert!(!line_matches("csv,fig3,0,4", "csv,fig3,0,4,1"));
}

#[test]
fn wall_clock_data_is_left_out() {
    let stdout = "header\ncsv,fig2,(a),52.9000\ncsv,hook_overhead,hotpotato,10,1.0\n\
                  csv,ablation-batch,16,0.000130\ncsv,oracle-gap,hot-sextet,35.4340,703,0.021165\n";
    let kept: Vec<&str> = deterministic_lines(stdout).collect();
    assert_eq!(
        kept,
        [
            "csv,fig2,(a),52.9000",
            "csv,oracle-gap,hot-sextet,35.4340,703"
        ]
    );
}
