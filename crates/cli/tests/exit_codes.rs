//! Exit-code contract of the `hotpotato-cli` binary.
//!
//! 0 — success; 1 — failure (bad arguments, setup errors); 2 — the
//! simulation aborted mid-run but the partial trace/report was written;
//! 3 — a sweep finished with failed/panicked/timed-out jobs; 4 — a
//! sweep finished with quarantined jobs (retry budget exhausted).
//! Pinned here by spawning the real binary, because the codes are the
//! scriptable API: CI and sweep wrappers branch on them.

use std::path::PathBuf;
use std::process::Command;

use hp_obs::RunReport;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hotpotato-cli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hp_exit_codes_{}_{name}", std::process::id()))
}

#[test]
fn success_exits_zero() {
    let out = cli()
        .args([
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "canneal",
            "--cores",
            "4",
            "--scheduler",
            "pinned",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn setup_failure_exits_one() {
    for name in ["magic", "chaos-panic"] {
        let out = cli()
            .args(["simulate", "--scheduler", name])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown scheduler"), "{name}: {stderr}");
    }
    let out = cli().args(["nonsense"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn aborted_run_exits_two_and_writes_partials() {
    let trace = tmp("trace.csv");
    let report = tmp("report.json");
    // A 50 ms horizon cannot finish the canneal batch: the engine aborts
    // with HorizonExceeded after flushing partial artefacts.
    let out = cli()
        .args([
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "canneal",
            "--cores",
            "4",
            "--scheduler",
            "pinned",
            "--horizon",
            "0.05",
            "--trace",
            trace.to_str().expect("utf-8 temp path"),
            "--report",
            report.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("horizon"), "stderr: {stderr}");

    let csv = std::fs::read_to_string(&trace).expect("partial trace written");
    assert!(csv.lines().count() > 1, "trace has samples");
    let raw = std::fs::read_to_string(&report).expect("partial report written");
    let parsed: RunReport = hp_sim::codec::decode_document(&raw).expect("report parses");
    assert!(parsed.meta_value("aborted").is_some());

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&report).ok();
}

/// A sweep spec with one healthy job and one chaos job that panics on
/// its first scheduling hook.
fn chaos_spec(name: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(
        &path,
        "{\"schedulers\": [\"pinned\", \"chaos-panic\"], \"grids\": [\"4x4\"], \
         \"loads\": [0.25], \"horizon_seconds\": 2}",
    )
    .expect("spec written");
    path
}

#[test]
fn sweep_with_failing_job_exits_three() {
    let spec = chaos_spec("fail_spec.json");
    let out = cli()
        .args([
            "sweep",
            "--spec",
            spec.to_str().expect("utf-8"),
            "--jobs",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to run"), "stderr: {stderr}");
    std::fs::remove_file(&spec).ok();
}

#[test]
fn sweep_with_quarantined_job_exits_four() {
    let spec = chaos_spec("quarantine_spec.json");
    let out = cli()
        .args([
            "sweep",
            "--spec",
            spec.to_str().expect("utf-8"),
            "--jobs",
            "2",
            "--retries",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quarantined"), "stderr: {stderr}");
    // The healthy neighbour still completed and was reported.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 completed"), "stdout: {stdout}");
    assert!(stdout.contains("QUARANTINED"), "stdout: {stdout}");
    std::fs::remove_file(&spec).ok();
}

/// A run resumed from its last checkpoint ends with the uninterrupted
/// run's report (timings aside) and summary — for the stateless `pinned`
/// and for `pcmig`, which keeps predictor state across hooks.
#[test]
fn simulate_checkpoints_and_resumes_bit_identically() {
    for scheduler in ["pinned", "pcmig"] {
        let dir = tmp(&format!("ckpt_dir_{scheduler}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = |name: &str| dir.join(name).to_str().expect("utf-8").to_string();
        let base = [
            "simulate",
            "--grid",
            "4x4",
            "--benchmark",
            "blackscholes",
            "--cores",
            "16",
            "--scheduler",
            scheduler,
        ];
        let run = |extra: &[&str], report: &str| {
            let out = cli()
                .args(base)
                .args(extra)
                .args(["--report", report])
                .output()
                .expect("binary runs");
            assert_eq!(out.status.code(), Some(0), "{out:?}");
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        // First leg: run to completion with periodic checkpoints on disk.
        let whole = run(
            &["--checkpoint-every", "0.02", "--checkpoint-dir", &path("")],
            &path("whole.json"),
        );
        let ckpt = path("simulate.ckpt.json");
        assert!(dir.join("simulate.ckpt.json").is_file(), "{whole}");

        // Second leg: resume the same run from the last checkpoint.
        let resumed = run(&["--resume-from", &ckpt], &path("resumed.json"));
        assert!(resumed.contains("resumed from checkpoint"), "{resumed}");
        let report = |name: &str| {
            let doc = std::fs::read_to_string(dir.join(name)).expect("report written");
            hp_sim::codec::decode_document::<RunReport>(&doc)
                .expect("report parses")
                .without_timings()
        };
        assert_eq!(
            report("resumed.json"),
            report("whole.json"),
            "{scheduler}: resumed report differs"
        );
        // The summary is every line that names neither checkpoints nor
        // the report file.
        let summary = |stdout: &str| {
            stdout
                .lines()
                .filter(|l| !l.contains("checkpoint") && !l.contains("report written"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            summary(&resumed),
            summary(&whole),
            "{scheduler}: resumed summary differs"
        );

        // A checkpoint from this run must not resume a different workload.
        let out = cli()
            .args([
                "simulate",
                "--grid",
                "4x4",
                "--benchmark",
                "swaptions",
                "--cores",
                "4",
                "--scheduler",
                scheduler,
                "--resume-from",
                &ckpt,
            ])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("spec"), "stderr: {stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn simulate_checkpoint_flags_must_pair() {
    let out = cli()
        .args(["simulate", "--checkpoint-every", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = cli()
        .args(["simulate", "--checkpoint-dir", "/tmp/nowhere"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}
