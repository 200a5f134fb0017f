//! Golden-trace regression for the interval engine: replays the 8×8
//! quickstart scenario (examples/quickstart.rs) under HotPotato and diffs
//! the per-interval peak-temperature trace and run metrics against the
//! committed fixture `tests/golden/quickstart_8x8.json`.
//!
//! Any change to the thermal stepping, the scheduler's rotation decisions,
//! the power model, or the engine loop shows up here as a trace diff —
//! this is the end-to-end guard behind the batched-kernel refactors.
//!
//! To regenerate the fixture after an *intentional* behaviour change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p hp-integration --test golden_trace
//! ```
//!
//! then commit the updated JSON together with the change that explains it.
//! Temperatures are compared at 1e-6 °C (the fixture stores 9 decimal
//! places; the slack absorbs libm `exp` differences across platforms),
//! interval counts and migration/DTM counters exactly.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use hotpotato::{HotPotato, HotPotatoConfig};
use hp_floorplan::GridFloorplan;
use hp_manycore::{ArchConfig, Machine};
use hp_obs::json::{self, Json};
use hp_sim::{Metrics, SimConfig, Simulation, TemperatureTrace};
use hp_thermal::{RcThermalModel, ThermalConfig};
use hp_workload::{Benchmark, Job, JobId};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/quickstart_8x8.json")
}

/// The quickstart scenario: the paper's 8×8 Table-I machine running
/// Blackscholes(4) + Canneal(4) under HotPotato with default engine
/// settings and trace recording on.
fn run_scenario() -> (Metrics, TemperatureTrace) {
    let machine = Machine::new(ArchConfig::default()).expect("8x8 default machine");
    let model = RcThermalModel::new(
        &GridFloorplan::new(8, 8).expect("grid"),
        &ThermalConfig::default(),
    )
    .expect("thermal model");
    let jobs = vec![
        Job {
            id: JobId(0),
            benchmark: Benchmark::Blackscholes,
            spec: Benchmark::Blackscholes.spec(4),
            arrival: 0.0,
        },
        Job {
            id: JobId(1),
            benchmark: Benchmark::Canneal,
            spec: Benchmark::Canneal.spec(4),
            arrival: 0.0,
        },
    ];
    let mut sim = Simulation::new(
        machine,
        ThermalConfig::default(),
        SimConfig {
            record_trace: true,
            ..SimConfig::default()
        },
    )
    .expect("sim config");
    let mut scheduler = HotPotato::new(model, HotPotatoConfig::default()).expect("scheduler");
    let metrics = sim.run(jobs, &mut scheduler).expect("run completes");
    (metrics, sim.trace().clone())
}

struct Golden {
    makespan: f64,
    peak_temperature: f64,
    energy: f64,
    migrations: u64,
    dtm_intervals: u64,
    peak_series: Vec<f64>,
}

fn render(m: &Metrics, trace: &TemperatureTrace) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"scenario\": \"quickstart_8x8\",\n");
    out.push_str(
        "  \"description\": \"8x8 Table-I machine, Blackscholes(4)+Canneal(4), HotPotato, \
         default SimConfig; regenerate with GOLDEN_REGEN=1 cargo test -p hp-integration \
         --test golden_trace\",\n",
    );
    let _ = writeln!(out, "  \"makespan\": {:.9},", m.makespan);
    let _ = writeln!(out, "  \"peak_temperature\": {:.9},", m.peak_temperature);
    let _ = writeln!(out, "  \"energy\": {:.9},", m.energy);
    let _ = writeln!(out, "  \"migrations\": {},", m.migrations);
    let _ = writeln!(out, "  \"dtm_intervals\": {},", m.dtm_intervals);
    out.push_str("  \"peak_series\": [\n");
    let peaks = trace.peak_series();
    for (k, p) in peaks.iter().enumerate() {
        let sep = if k + 1 == peaks.len() { "" } else { "," };
        let _ = writeln!(out, "    {p:.9}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the fixture through the workspace's JSON parser.
fn parse(src: &str) -> Golden {
    let doc = json::parse(src).expect("golden fixture is JSON");
    let num = |name: &str| {
        doc.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("field {name} missing or not a number"))
    };
    let count = |name: &str| match doc.get(name) {
        Some(Json::Num(raw)) => raw
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("field {name} unparsable: {e}")),
        _ => panic!("field {name} missing or not a number"),
    };
    let Some(Json::Arr(series)) = doc.get("peak_series") else {
        panic!("peak_series missing or not an array");
    };
    Golden {
        makespan: num("makespan"),
        peak_temperature: num("peak_temperature"),
        energy: num("energy"),
        migrations: count("migrations"),
        dtm_intervals: count("dtm_intervals"),
        peak_series: series
            .iter()
            .map(|v| v.as_f64().expect("peak_series entry is a number"))
            .collect(),
    }
}

#[test]
fn quickstart_8x8_matches_golden_trace() {
    let (metrics, trace) = run_scenario();
    let path = golden_path();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir golden");
        fs::write(&path, render(&metrics, &trace)).expect("write golden fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let json = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} unreadable ({e}); regenerate with \
             GOLDEN_REGEN=1 cargo test -p hp-integration --test golden_trace",
            path.display()
        )
    });
    let golden = parse(&json);

    assert!(
        (metrics.makespan - golden.makespan).abs() < 1e-9,
        "makespan drifted: {} vs golden {}",
        metrics.makespan,
        golden.makespan
    );
    assert_eq!(
        metrics.migrations, golden.migrations,
        "migration count drifted"
    );
    assert_eq!(
        metrics.dtm_intervals, golden.dtm_intervals,
        "DTM count drifted"
    );
    assert!(
        (metrics.peak_temperature - golden.peak_temperature).abs() < 1e-6,
        "peak temperature drifted: {} vs golden {}",
        metrics.peak_temperature,
        golden.peak_temperature
    );
    assert!(
        (metrics.energy - golden.energy).abs() < 1e-6,
        "energy drifted: {} vs golden {}",
        metrics.energy,
        golden.energy
    );

    let peaks = trace.peak_series();
    assert_eq!(
        peaks.len(),
        golden.peak_series.len(),
        "interval count drifted: {} vs golden {}",
        peaks.len(),
        golden.peak_series.len()
    );
    // Sample 0 is the initial t = 0 state; sample k is t = k·10⁻⁴ s.
    for (k, (got, want)) in peaks.iter().zip(&golden.peak_series).enumerate() {
        assert!(
            (got - want).abs() < 1e-6,
            "interval {k} (t = {:.4} s): peak {} vs golden {}",
            k as f64 * 1e-4,
            got,
            want
        );
    }
}

#[test]
fn scenario_is_reproducible_within_process() {
    // The golden diff is only meaningful if the scenario itself is
    // deterministic: two in-process runs must agree exactly — except the
    // wall-clock hook histograms, which are real time and exempt from
    // the determinism contract (DESIGN.md §10).
    let (mut m1, t1) = run_scenario();
    let (mut m2, t2) = run_scenario();
    m1.observability = m1.observability.without_timings();
    m2.observability = m2.observability.without_timings();
    assert_eq!(m1, m2);
    assert_eq!(t1, t2);
}
