//! Property tests for the `hp-ckpt-v2` checkpoint codec.
//!
//! Checkpoints are generated the only way real ones are — by running the
//! engine with periodic checkpointing over randomized machines, fault
//! plans, and workloads — then pushed through the codec:
//!
//! * encode → decode → encode must be byte-identical (the canonical
//!   encoding is its own fixpoint, which is what the content digest is
//!   computed over) — the carried eigen coordinates included, so they
//!   survive bit for bit;
//! * any single-byte corruption of the state block must be rejected as
//!   `DigestMismatch` (or `Parse` when it breaks JSON syntax) — never
//!   silently accepted;
//! * truncation and schema tampering are typed errors, not panics;
//! * a checkpoint captured right after an interval whose readout
//!   certificate skipped the spreader and sink rows still holds the full
//!   readout `modal_temps·Vᵀ`, bit for bit, and resumes exactly.

use proptest::prelude::*;

use hp_faults::FaultPlan;
use hp_linalg::Matrix;
use hp_manycore::{ArchConfig, Machine};
use hp_obs::json::{self, Json};
use hp_sim::{
    schedulers::PinnedScheduler, CheckpointError, EngineCheckpoint, Metrics, RunOptions, SimConfig,
    Simulation,
};
use hp_thermal::ThermalConfig;
use hp_workload::{closed_batch, Benchmark};

/// Runs a short faulted batch with checkpointing on and returns the last
/// checkpoint written. Interrupts via the interval budget so the file is
/// guaranteed to exist (budget > first checkpoint boundary). Each test
/// passes its own `scratch` name, so tests running in parallel never
/// share a checkpoint file.
fn make_checkpoint(
    scratch: &str,
    width: usize,
    cores: usize,
    seed: u64,
    dropout: f64,
) -> EngineCheckpoint {
    let machine = Machine::new(ArchConfig {
        grid_width: width,
        grid_height: width,
        ..ArchConfig::default()
    })
    .expect("valid grid");
    let config = SimConfig {
        record_trace: true,
        faults: FaultPlan {
            seed,
            sensor_dropout_rate: dropout,
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    };
    let mut sim =
        Simulation::new(machine, ThermalConfig::default(), config).expect("valid sim config");
    let mut sched = PinnedScheduler::new();
    let dir = std::env::temp_dir().join(format!("hp-ckpt-prop-{}-{scratch}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{width}x{width}-{cores}-{seed}.ckpt.json"));
    let _ = sim.run_with_options(
        closed_batch(Benchmark::Canneal, cores, seed),
        &mut sched,
        &RunOptions {
            checkpoint_every_seconds: Some(10e-3), // step 100 at dt = 100 µs
            checkpoint_path: Some(path.clone()),
            max_intervals: Some(250),
            ..RunOptions::default()
        },
    );
    let ckpt = EngineCheckpoint::load_from_path(&path).expect("checkpoint written and loads");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    ckpt
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    #[test]
    fn encode_decode_encode_is_byte_identical(
        width in 2usize..=4,
        cores in 1usize..=4,
        seed in 0u64..1000,
        dropout in 0.0f64..0.3,
    ) {
        let ckpt = make_checkpoint("fixpoint", width, cores, seed, dropout);
        let first = ckpt.to_json_string();
        let decoded = EngineCheckpoint::from_json_str(&first).expect("own encoding decodes");
        let second = decoded.to_json_string();
        prop_assert_eq!(first, second, "canonical encoding must be a fixpoint");
        prop_assert_eq!(decoded.spec_hash(), ckpt.spec_hash());
        prop_assert_eq!(decoded.step(), ckpt.step());
        // A healthy run carries its eigen coordinates; the byte-identical
        // re-encoding above means every one of them decoded bit for bit.
        prop_assert!(first.contains("\"modal_temps\":["), "modal state is captured");
    }

    #[test]
    fn corrupted_or_truncated_documents_are_rejected(
        seed in 0u64..1000,
        cut in 1usize..200,
        flip in 0usize..400,
    ) {
        let ckpt = make_checkpoint("corruption", 3, 2, seed, 0.1);
        let doc = ckpt.to_json_string();

        // Truncation: always a typed error, never a panic or a resume.
        let truncated = &doc[..doc.len() - (cut % (doc.len() - 1)).max(1)];
        match EngineCheckpoint::from_json_str(truncated) {
            Err(CheckpointError::Parse { .. }) | Err(CheckpointError::DigestMismatch { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
            Ok(_) => prop_assert!(false, "truncated document must not load"),
        }

        // Single-character corruption inside the state block: digit
        // swaps keep the JSON well-formed, so the digest must catch them.
        let state_at = doc.find("\"state\"").expect("state key present");
        let bytes = doc.as_bytes();
        let mut target = None;
        for i in 0..bytes.len() {
            let i = (state_at + 8 + flip + i) % bytes.len();
            if i > state_at && bytes[i].is_ascii_digit() {
                target = Some(i);
                break;
            }
        }
        if let Some(i) = target {
            let mut corrupt = doc.clone().into_bytes();
            corrupt[i] = if corrupt[i] == b'9' { b'8' } else { b'9' };
            let corrupt = String::from_utf8(corrupt).expect("still utf-8");
            match EngineCheckpoint::from_json_str(&corrupt) {
                Err(CheckpointError::Parse { .. })
                | Err(CheckpointError::DigestMismatch { .. })
                | Err(CheckpointError::Invalid { .. }) => {}
                Err(other) => prop_assert!(false, "unexpected error class: {other}"),
                Ok(loaded) => {
                    // The flip may have hit the *digest* field itself and
                    // produced a self-consistent doc only if it round-trips
                    // to the same digest — which a digit flip cannot.
                    prop_assert!(
                        false,
                        "corrupted document loaded (step {})",
                        loaded.step()
                    );
                }
            }
        }
    }
}

#[test]
fn schema_tampering_is_a_version_error() {
    let ckpt = make_checkpoint("schema", 3, 1, 7, 0.0);
    let doc = ckpt.to_json_string();
    let tampered = doc.replace(hp_sim::CHECKPOINT_SCHEMA, "hp-ckpt-v9");
    assert_ne!(tampered, doc);
    match EngineCheckpoint::from_json_str(&tampered) {
        Err(CheckpointError::Version { found, .. }) => assert_eq!(found, "hp-ckpt-v9"),
        other => panic!("expected Version error, got {other:?}"),
    }
}

/// The floats of the checkpoint state's member `key`.
fn state_floats(ckpt: &EngineCheckpoint, key: &str) -> Vec<f64> {
    let doc = json::parse(&ckpt.to_json_string()).expect("own encoding parses");
    match doc.get("state").and_then(|state| state.get(key)) {
        Some(Json::Arr(values)) => values
            .iter()
            .map(|v| v.as_f64().expect("a number"))
            .collect(),
        other => panic!("state member {key}: {other:?}"),
    }
}

/// Metrics with wall-clock observability stripped.
fn normalized(m: &Metrics) -> Metrics {
    let mut m = m.clone();
    m.observability = m.observability.without_timings();
    m
}

#[test]
fn a_checkpoint_after_a_certified_interval_holds_the_full_readout_and_resumes_exactly() {
    let machine = || {
        Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .expect("valid grid")
    };
    let config = SimConfig {
        record_trace: true,
        ..SimConfig::default()
    };
    let sim = || Simulation::new(machine(), ThermalConfig::default(), config).expect("sim");
    let jobs = || closed_batch(Benchmark::Canneal, 4, 11);
    let mut golden_sim = sim();
    let golden = golden_sim
        .run(jobs(), &mut PinnedScheduler::new())
        .expect("golden completes");

    // Checkpoints every 10 ms; the budget stops the run 30 intervals
    // after the one at step 200. Interval 200 is certified: the anchor
    // of interval 66's full readout clears its spreader and sink rows,
    // so the engine reads out only the junctions, and the checkpoint
    // reads the other rows out on capture. (Of this run's 1413
    // intervals, only 1, 13, 31, 66 and 511 read out every node.)
    let dir = std::env::temp_dir().join(format!("hp-ckpt-certified-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("certified.ckpt.json");
    let mut cut_sim = sim();
    let _ = cut_sim.run_with_options(
        jobs(),
        &mut PinnedScheduler::new(),
        &RunOptions {
            checkpoint_every_seconds: Some(10e-3),
            checkpoint_path: Some(path.clone()),
            max_intervals: Some(230),
            ..RunOptions::default()
        },
    );
    let ckpt = EngineCheckpoint::load_from_path(&path).expect("checkpoint written and loads");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    assert_eq!(ckpt.step(), 200);

    let nodes = state_floats(&ckpt, "node_temps");
    let z = state_floats(&ckpt, "modal_temps");
    let model = golden_sim.thermal();
    let readout = Matrix::from_fn(1, z.len(), |_, k| z[k])
        .mul_matrix(model.basis().expect("basis").v_t())
        .expect("z has the node count");
    assert_eq!(nodes.len(), model.node_count());
    for (i, t) in nodes.iter().enumerate() {
        assert_eq!(t.to_bits(), readout[(0, i)].to_bits(), "node {i}");
    }

    let mut resumed_sim = sim();
    let resumed = resumed_sim
        .run_with_options(
            jobs(),
            &mut PinnedScheduler::new(),
            &RunOptions {
                resume_from: Some(ckpt),
                ..RunOptions::default()
            },
        )
        .expect("resumed run completes");
    assert_eq!(normalized(&resumed), normalized(&golden));
    assert_eq!(resumed_sim.trace(), golden_sim.trace());
}
