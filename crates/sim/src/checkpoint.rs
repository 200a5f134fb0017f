//! Versioned engine checkpoints (`hp-ckpt-v2`): mid-run state capture
//! with content digests and spec binding (DESIGN.md §13).
//!
//! A checkpoint freezes everything [`Simulation::run_with_options`]
//! (crate::Simulation) mutates between intervals — simulated time, the
//! thermal node-state vector and its eigen coordinates (the modal state
//! the engine steps, `null` once it steps in node space), queues,
//! per-thread runtimes, fault-injector
//! RNG cursors, metrics and observability counters, the recorded trace,
//! and the scheduler's opaque snapshot blob — so a run killed at a
//! checkpoint boundary resumes *bit-identical* to an uninterrupted one
//! (same trace, same `RunReport::without_timings`). The engine's half of
//! that promise is this module; the scheduler's half is
//! [`Scheduler::snapshot`](crate::Scheduler::snapshot): a policy that
//! keeps state across hooks must snapshot it, and
//! `tests/checkpoint_chaos.rs::every_scheduler_resumes_bit_identically`
//! holds every built-in policy to it.
//!
//! The document is JSON wrapped in an integrity envelope:
//!
//! ```json
//! {"schema": "hp-ckpt-v2",
//!  "spec_hash": "0011223344556677",
//!  "digest":    "8899aabbccddeeff",
//!  "state": { ... }}
//! ```
//!
//! * The state block is written and read by the one [`codec`](crate::codec)
//!   that also carries the scheduler blobs: every struct below declares
//!   its members once, in document order, and the same list drives both
//!   directions.
//! * `digest` is FNV-1a over the *canonical* encoding of `state`: the
//!   loader decodes the state, re-encodes it canonically and compares.
//!   A corrupted-but-parseable document is a typed
//!   [`CheckpointError::DigestMismatch`], never a silent wrong resume.
//!   The codec decodes a float only in the spelling it writes, so an
//!   edit that parses to the same `f64` (a flipped 17th digit) cannot
//!   slip past the re-encoding.
//! * `spec_hash` binds the checkpoint to one (machine, modal basis,
//!   config, workload, scheduler) tuple; resuming against anything else
//!   is a typed [`CheckpointError::SpecMismatch`].
//! * Truncated or malformed documents are [`CheckpointError::Parse`]
//!   naming the member that failed; an unknown schema string is
//!   [`CheckpointError::Version`]. That includes `hp-ckpt-v1`: its
//!   documents carry no modal state, and re-projecting the node vector
//!   would not resume bit-identically.

use std::fmt::Write as _;
use std::path::Path;

use hp_faults::{ConditionerSnapshot, FaultStats, InjectorSnapshot};
use hp_manycore::Machine;
use hp_obs::json::parse;
use hp_thermal::{NumericsStats, SolverStats};
use hp_workload::Job;

use crate::codec::{self, Codec, Hex, Style};
use crate::engine::SENSOR_STALENESS_BUDGET_INTERVALS;
use crate::job::{ThreadId, ThreadRuntime, POWER_HISTORY_WINDOW_SECONDS};
use crate::metrics::{JobRecord, Robustness};
use crate::trace::TemperatureTrace;
use crate::SimConfig;

/// The schema string every `hp-ckpt-v2` document carries.
pub const CHECKPOINT_SCHEMA: &str = "hp-ckpt-v2";

/// Typed failures of checkpoint save/load/verify.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The document is truncated or not well-formed `hp-ckpt-v2` JSON.
    Parse {
        /// What failed, with position where available.
        message: String,
    },
    /// The document's schema string is not [`CHECKPOINT_SCHEMA`].
    Version {
        /// The schema string found in the document.
        found: String,
    },
    /// The stored content digest does not match the canonical re-encoding
    /// of the decoded state — the document was corrupted in flight.
    DigestMismatch {
        /// Digest stored in the document.
        expected: u64,
        /// Digest of the re-encoded state.
        found: u64,
    },
    /// The checkpoint was taken under a different (machine, config,
    /// workload, scheduler) tuple than the one it is being resumed into.
    SpecMismatch {
        /// Spec hash of the run being resumed.
        expected: u64,
        /// Spec hash stored in the checkpoint.
        found: u64,
    },
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The OS error, with the path.
        message: String,
    },
    /// The document verified but could not be re-bound to the run (e.g.
    /// a job id that the supplied workload does not contain).
    Invalid {
        /// What failed to rebind.
        message: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Parse { message } => {
                write!(f, "malformed checkpoint document: {message}")
            }
            CheckpointError::Version { found } => {
                write!(
                    f,
                    "unsupported checkpoint schema `{found}` (expected `{CHECKPOINT_SCHEMA}`)"
                )
            }
            CheckpointError::DigestMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint digest mismatch: document says {expected:016x}, state re-encodes to {found:016x}"
                )
            }
            CheckpointError::SpecMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint belongs to a different run: spec hash {found:016x}, this run is {expected:016x}"
                )
            }
            CheckpointError::Io { message } => write!(f, "checkpoint I/O failure: {message}"),
            CheckpointError::Invalid { message } => {
                write!(f, "checkpoint cannot be re-bound to this run: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Crate-local result alias for checkpoint operations.
pub(crate) type CkptResult<T> = std::result::Result<T, CheckpointError>;

/// 64-bit FNV-1a, the workspace's standing content-fingerprint choice
/// (`hp-campaign` job digests use the same function).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of everything a checkpoint is only valid against: the
/// machine geometry, the thermal model's modal basis
/// ([`ModalBasis::fingerprint`](hp_thermal::ModalBasis::fingerprint) —
/// `modal_temps` are coordinates in it, so another thermal configuration
/// or another eigensolver build must not resume them), the full engine
/// configuration (including the fault plan), the workload (in the
/// arrival order the engine will use) and the scheduler's name. Two runs
/// with equal spec hashes walk identical deterministic trajectories,
/// which is what makes mid-run state transplantable between them.
pub(crate) fn spec_hash(
    machine: &Machine,
    basis_fingerprint: u64,
    config: &SimConfig,
    jobs: &[Job],
    scheduler_name: &str,
) -> u64 {
    let arch = machine.config();
    let mut s = String::new();
    let _ = write!(s, "grid={}x{};", arch.grid_width, arch.grid_height);
    let _ = write!(s, "basis={basis_fingerprint:016x};");
    let _ = write!(
        s,
        "dt={};sched_period={};t_dtm={};dtm={};scope={:?};horizon={};trace={};window={};prewarm={:?};hyst={};stale={};",
        config.dt,
        config.sched_period,
        config.t_dtm,
        config.dtm_enabled,
        config.dtm_scope,
        config.horizon,
        config.record_trace,
        POWER_HISTORY_WINDOW_SECONDS,
        config.prewarm_power,
        config.dtm_hysteresis_celsius,
        SENSOR_STALENESS_BUDGET_INTERVALS,
    );
    s.push_str("faults=");
    s.push_str(&codec::pretty(&config.faults));
    s.push(';');
    // Hash jobs in the stable arrival order init_run will sort them
    // into, so the hash is invariant to the caller's vector order.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[a].arrival.total_cmp(&jobs[b].arrival));
    for i in order {
        let j = &jobs[i];
        let _ = write!(
            s,
            "job={}|{}|{}|{};",
            j.id.0,
            j.benchmark.name(),
            j.arrival,
            j.spec.thread_count()
        );
    }
    s.push_str("scheduler=");
    s.push_str(scheduler_name);
    fnv1a(s.as_bytes())
}

// ---------------------------------------------------------------------
// The state block. The digest is computed over its canonical encoding,
// so every declaration below (field names and order) is part of the
// format contract.
// ---------------------------------------------------------------------

crate::codec! {
    /// One active job's frozen runtime (the `Job` itself is re-bound from
    /// the workload at resume; the spec hash guarantees it matches).
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct ActiveJobState {
        pub job: usize,
        pub phase: usize,
        pub completed: Option<f64>,
        pub threads: Vec<ThreadRuntime>,
    }
}

crate::codec! {
    /// Frozen scalar metrics (per-job records travel separately; derived
    /// fields are recomputed at finalize).
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub(crate) struct MetricsState {
        pub makespan: f64,
        pub peak_temperature: f64,
        pub dtm_intervals: u64,
        pub migrations: u64,
        pub energy: f64,
        pub simulated_time: f64,
    }
}

crate::codec! {
    /// Frozen fault-layer runtime: injector RNG cursor and episode state,
    /// conditioner hold/staleness state, and the last conditioned view.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct FaultState {
        pub injector: InjectorSnapshot,
        pub conditioner: ConditionerSnapshot,
        pub sensed_temps: Vec<f64>,
        pub confidence: Vec<f64>,
        pub sensors_degraded: bool,
    }
}

crate::codec! {
    /// Frozen observability registry: seed-deterministic counters, gauges
    /// and metadata as `[name, value]` pairs. Wall-clock histograms are
    /// deliberately dropped — they are excluded from
    /// `RunReport::without_timings` and cannot be resumed meaningfully.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub(crate) struct ObsState {
        pub counters: Vec<(String, u64)>,
        pub gauges: Vec<(String, f64)>,
        pub meta: Vec<(String, String)>,
    }
}

crate::codec! {
    /// The scheduler the checkpoint was taken under and its opaque
    /// [`Scheduler::snapshot`](crate::Scheduler::snapshot) blob.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct SchedulerState {
        pub name: String,
        pub blob: Option<String>,
    }
}

crate::codec! {
    /// Everything the engine needs to rebuild a `RunState` mid-flight.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct CheckpointState {
        pub step: u64,
        pub node_temps: Vec<f64>,
        /// Eigen coordinates of `node_temps` as the engine carried them;
        /// `None` once the run steps in node space (dense fallback).
        pub modal_temps: Option<Vec<f64>>,
        pub levels: Vec<usize>,
        pub occupancy: Vec<Option<ThreadId>>,
        pub pending: Vec<usize>,
        pub arrivals: Vec<usize>,
        pub active: Vec<ActiveJobState>,
        pub records: Vec<JobRecord>,
        pub completed: u64,
        pub dtm_last_interval: bool,
        pub dtm_core_latch: Vec<bool>,
        pub busy_freq_integral: f64,
        pub busy_time: f64,
        pub sched_was_degraded: bool,
        pub metrics: MetricsState,
        pub robustness: Robustness,
        pub faults: Option<FaultState>,
        pub obs: ObsState,
        pub trace: TemperatureTrace,
        pub thermal_stats: SolverStats,
        pub numerics_stats: NumericsStats,
        pub scheduler: SchedulerState,
    }
}

// Types of other modules and crates, in the shape the state embeds them.
crate::codec!(ThreadId [job, index]);

crate::codec!(JobRecord {
    job,
    benchmark,
    threads,
    arrival,
    started,
    completed,
    instructions,
    migrations,
    energy,
});

crate::codec!(Robustness {
    faults_enabled,
    noisy_readings,
    stuck_readings,
    sensor_dropouts,
    migration_faults,
    power_spikes,
    dropped_actions,
    min_sensor_confidence,
    fallback_intervals,
    fallback_activations,
    watchdog_intervals,
    watchdog_activations,
});

crate::codec!(InjectorSnapshot {
    rng_state,
    stuck_until,
    stuck_value_celsius,
    blackout_until,
    spike_core,
    spike_until,
    interval,
    stats,
});

crate::codec!(FaultStats {
    noisy_readings,
    stuck_episodes,
    stuck_readings,
    dropouts,
    migration_failures,
    migration_blackouts,
    power_spikes,
});

crate::codec!(ConditionerSnapshot {
    last_good_celsius,
    staleness,
    seen,
});

/// The document around the state block, as it is read (the writer
/// encodes the state once, for the digest and the document).
struct Envelope {
    spec_hash: u64,
    digest: u64,
    state: CheckpointState,
}

crate::codec! { #[schema = CHECKPOINT_SCHEMA] Envelope { spec_hash: Hex, digest: Hex, state } }

/// A verified, versioned engine checkpoint — the unit of crash recovery
/// for long simulations (DESIGN.md §13).
///
/// Construct one by running with
/// [`RunOptions::checkpoint_every_seconds`](crate::RunOptions) and load
/// it back with [`EngineCheckpoint::load_from_path`]; hand it to
/// [`RunOptions::resume_from`](crate::RunOptions) to continue the run.
/// The loader has already digest-verified the state; the spec-hash
/// binding is enforced again by the engine at resume time.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    pub(crate) spec_hash: u64,
    pub(crate) state: CheckpointState,
}

impl EngineCheckpoint {
    /// The fingerprint of the (machine, config, workload, scheduler)
    /// tuple the checkpoint was taken under.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// The simulation interval counter at capture time.
    pub fn step(&self) -> u64 {
        self.state.step
    }

    /// Simulated seconds elapsed at capture time.
    pub fn simulated_seconds(&self) -> f64 {
        self.state.metrics.simulated_time
    }

    /// Renders the full `hp-ckpt-v2` document, digest included.
    pub fn to_json_string(&self) -> String {
        let state = codec::encode(&self.state);
        let digest = fnv1a(state.as_bytes());
        format!(
            "{{\"schema\": \"{CHECKPOINT_SCHEMA}\", \"spec_hash\": \"{:016x}\", \"digest\": \"{digest:016x}\", \"state\": {state}}}",
            self.spec_hash
        )
    }

    /// Parses and verifies an `hp-ckpt-v2` document.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::Parse`] — truncated or malformed JSON, or a
    ///   structurally wrong state block (the message names the member).
    /// * [`CheckpointError::Version`] — unknown schema string.
    /// * [`CheckpointError::DigestMismatch`] — the state decodes but its
    ///   canonical re-encoding does not hash to the stored digest.
    pub fn from_json_str(src: &str) -> CkptResult<Self> {
        let parse_error = |message: String| CheckpointError::Parse { message };
        let doc = parse(src).map_err(|e| parse_error(e.to_string()))?;
        // The schema first: a document of another version is refused as
        // such, whatever its state block holds.
        let schema = codec::schema(&doc).map_err(parse_error)?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Version { found: schema });
        }
        let Envelope {
            spec_hash,
            digest,
            state,
        } = Envelope::take(&doc, "checkpoint", Style::Canonical).map_err(parse_error)?;
        let found = fnv1a(codec::encode(&state).as_bytes());
        if found != digest {
            return Err(CheckpointError::DigestMismatch {
                expected: digest,
                found,
            });
        }
        Ok(EngineCheckpoint { spec_hash, state })
    }

    /// Atomically writes the document to `path` (tmp file + rename, so a
    /// crash mid-write never leaves a truncated checkpoint under the
    /// real name).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures.
    pub fn save_to_path(&self, path: &Path) -> CkptResult<()> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json_string()).map_err(|e| CheckpointError::Io {
            message: format!("writing {}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io {
            message: format!("renaming {} to {}: {e}", tmp.display(), path.display()),
        })
    }

    /// Reads and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures, plus everything
    /// [`EngineCheckpoint::from_json_str`] can raise.
    pub fn load_from_path(path: &Path) -> CkptResult<Self> {
        let src = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            message: format!("reading {}: {e}", path.display()),
        })?;
        Self::from_json_str(&src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::PowerHistory;
    use crate::trace::TraceEventKind;
    use hp_floorplan::CoreId;
    use hp_workload::JobId;

    fn sample_state() -> CheckpointState {
        CheckpointState {
            step: 42,
            node_temps: vec![45.0, 46.25, -0.0],
            modal_temps: Some(vec![-1.5e-3, 0.1 + 0.2, f64::MIN_POSITIVE]),
            levels: vec![2, 0],
            occupancy: vec![
                Some(ThreadId {
                    job: JobId(1),
                    index: 0,
                }),
                None,
            ],
            pending: vec![3],
            arrivals: vec![4, 5],
            active: vec![ActiveJobState {
                job: 1,
                phase: 1,
                completed: None,
                threads: vec![ThreadRuntime {
                    core: CoreId(0),
                    running: Some(12345),
                    stall_until: 0.0015,
                    warmup_until: 0.002,
                    history: {
                        let mut h = PowerHistory::new(0.01);
                        h.push(1e-4, 2.5);
                        h.push(1e-4, 2.75);
                        h
                    },
                    last_cpi: f64::INFINITY,
                    migrations: 2,
                    instructions_retired: 777,
                    energy: 0.125,
                }],
            }],
            records: vec![JobRecord {
                job: JobId(1),
                benchmark: "canneal".into(),
                threads: 1,
                arrival: 0.0,
                started: 0.0,
                completed: None,
                instructions: 0,
                migrations: 0,
                energy: 0.0,
            }],
            completed: 0,
            dtm_last_interval: true,
            dtm_core_latch: vec![true, false],
            busy_freq_integral: 1.23,
            busy_time: 0.42,
            sched_was_degraded: false,
            metrics: MetricsState {
                makespan: 0.0,
                peak_temperature: 71.5,
                dtm_intervals: 3,
                migrations: 2,
                energy: 9.75,
                simulated_time: 0.0042,
            },
            robustness: Robustness {
                faults_enabled: true,
                noisy_readings: 7,
                min_sensor_confidence: 0.5,
                ..Robustness::default()
            },
            faults: Some(FaultState {
                injector: InjectorSnapshot {
                    rng_state: [u64::MAX, 1, 2, 3],
                    stuck_until: vec![0, 9],
                    stuck_value_celsius: vec![0.0, 55.5],
                    blackout_until: 0,
                    spike_core: 1,
                    spike_until: 50,
                    interval: 42,
                    stats: hp_faults::FaultStats {
                        noisy_readings: 7,
                        ..hp_faults::FaultStats::default()
                    },
                },
                conditioner: ConditionerSnapshot {
                    last_good_celsius: vec![45.0, 55.5],
                    staleness: vec![0, 2],
                    seen: vec![true, true],
                },
                sensed_temps: vec![45.0, 55.5],
                confidence: vec![1.0, 0.5],
                sensors_degraded: false,
            }),
            obs: ObsState {
                counters: vec![("engine.intervals".into(), 42)],
                gauges: vec![("g".into(), f64::NEG_INFINITY)],
                meta: vec![("k".into(), "v — µ".into())],
            },
            trace: {
                let mut t = TemperatureTrace::new();
                t.push(0.0, vec![45.0, 46.0]);
                t.push(1e-4, vec![45.5, 46.5]);
                t.push_event(1e-4, TraceEventKind::WatchdogEngaged, "peak 70.1 C".into());
                t
            },
            thermal_stats: SolverStats {
                batch_calls: 42,
                batched_items: 42,
                decay_cache_hits: 41,
                decay_cache_misses: 1,
            },
            numerics_stats: NumericsStats::default(),
            scheduler: SchedulerState {
                name: "hotpotato".into(),
                blob: Some("{\"tau_index\":1}".into()),
            },
        }
    }

    #[test]
    fn document_roundtrips_bit_identically() {
        let ckpt = EngineCheckpoint {
            spec_hash: 0x0123_4567_89ab_cdef,
            state: sample_state(),
        };
        let json = ckpt.to_json_string();
        let back = EngineCheckpoint::from_json_str(&json).expect("roundtrip");
        assert_eq!(back, ckpt);
        assert_eq!(back.to_json_string(), json, "encode is canonical");
    }

    #[test]
    fn digest_rejects_tampering() {
        let ckpt = EngineCheckpoint {
            spec_hash: 1,
            state: sample_state(),
        };
        let json = ckpt.to_json_string().replace("\"step\":42", "\"step\":43");
        match EngineCheckpoint::from_json_str(&json) {
            Err(CheckpointError::DigestMismatch { .. }) => {}
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_a_parse_error() {
        let ckpt = EngineCheckpoint {
            spec_hash: 1,
            state: sample_state(),
        };
        let json = ckpt.to_json_string();
        let cut = &json[..json.len() / 2];
        assert!(matches!(
            EngineCheckpoint::from_json_str(cut),
            Err(CheckpointError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_schema_is_a_version_error() {
        let ckpt = EngineCheckpoint {
            spec_hash: 1,
            state: sample_state(),
        };
        let json = ckpt
            .to_json_string()
            .replace(CHECKPOINT_SCHEMA, "hp-ckpt-v9");
        assert!(matches!(
            EngineCheckpoint::from_json_str(&json),
            Err(CheckpointError::Version { found }) if found == "hp-ckpt-v9"
        ));
    }

    #[test]
    fn v1_document_is_refused_with_a_version_error() {
        // A v1 document has no modal state; refusing it by schema keeps
        // a resume from silently re-projecting the node vector.
        let ckpt = EngineCheckpoint {
            spec_hash: 1,
            state: sample_state(),
        };
        let v2 = ckpt.to_json_string();
        let modal = v2.find(",\"modal_temps\":").expect("modal member");
        let levels = v2.find(",\"levels\":").expect("levels member");
        let v1 =
            format!("{}{}", &v2[..modal], &v2[levels..]).replace(CHECKPOINT_SCHEMA, "hp-ckpt-v1");
        match EngineCheckpoint::from_json_str(&v1) {
            Err(CheckpointError::Version { found }) => assert_eq!(found, "hp-ckpt-v1"),
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn modal_state_roundtrips_bit_for_bit() {
        let mut state = sample_state();
        let z = vec![
            -0.0,
            1.0 / 3.0,
            -1e-310,
            123_456.789_012_345_6,
            f64::EPSILON,
        ];
        state.modal_temps = Some(z.clone());
        let ckpt = EngineCheckpoint {
            spec_hash: 7,
            state,
        };
        let back = EngineCheckpoint::from_json_str(&ckpt.to_json_string()).expect("roundtrip");
        let got = back.state.modal_temps.expect("modal state survives");
        assert_eq!(got.len(), z.len());
        for (a, b) in got.iter().zip(&z) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Node-space states carry an explicit null.
        let mut node_space = sample_state();
        node_space.modal_temps = None;
        let ckpt = EngineCheckpoint {
            spec_hash: 7,
            state: node_space,
        };
        let json = ckpt.to_json_string();
        assert!(json.contains("\"modal_temps\":null"));
        let back = EngineCheckpoint::from_json_str(&json).expect("roundtrip");
        assert_eq!(back.state.modal_temps, None);
    }

    #[test]
    fn whitespace_and_key_order_do_not_break_the_digest() {
        // The digest covers the canonical re-encoding, not the raw
        // bytes: a pretty-printed but semantically identical document
        // still verifies. (The blob is dropped so the naive reformatter
        // below cannot touch an escaped `\":` *inside* a string value —
        // that would be a real content change, correctly rejected.)
        let mut state = sample_state();
        state.scheduler.blob = None;
        let ckpt = EngineCheckpoint {
            spec_hash: 7,
            state,
        };
        let json = ckpt.to_json_string().replace("\":", "\": ");
        let back = EngineCheckpoint::from_json_str(&json).expect("reformatted doc verifies");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn nonfinite_floats_roundtrip() {
        let mut state = sample_state();
        state.busy_time = f64::NAN;
        state.busy_freq_integral = f64::NEG_INFINITY;
        let ckpt = EngineCheckpoint {
            spec_hash: 2,
            state,
        };
        let back = EngineCheckpoint::from_json_str(&ckpt.to_json_string()).expect("roundtrip");
        assert!(back.state.busy_time.is_nan());
        assert_eq!(back.state.busy_freq_integral, f64::NEG_INFINITY);
    }

    #[test]
    fn save_and_load_are_atomic_and_typed() {
        let dir = std::env::temp_dir().join(format!("hp-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("run.ckpt.json");
        let ckpt = EngineCheckpoint {
            spec_hash: 3,
            state: sample_state(),
        };
        ckpt.save_to_path(&path).expect("save");
        assert!(
            !path.with_extension("json.tmp").exists(),
            "tmp file renamed away"
        );
        let back = EngineCheckpoint::load_from_path(&path).expect("load");
        assert_eq!(back, ckpt);
        let missing = dir.join("absent.ckpt.json");
        assert!(matches!(
            EngineCheckpoint::load_from_path(&missing),
            Err(CheckpointError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_is_order_invariant_and_sensitive() {
        use hp_manycore::{ArchConfig, Machine};
        use hp_workload::{Benchmark, Job};
        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .expect("machine");
        let config = SimConfig::default();
        // Distinct arrivals: the engine's stable arrival sort then fully
        // determines the order, so the caller's vector order must not
        // matter. (Tied arrivals keep caller order — which genuinely
        // changes admission order, so such hashes legitimately differ.)
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job {
                id: JobId(i),
                benchmark: Benchmark::Canneal,
                spec: Benchmark::Canneal.spec(2),
                arrival: i as f64 * 0.1,
            })
            .collect();
        let mut reversed = jobs.clone();
        reversed.reverse();
        let a = spec_hash(&machine, 1, &config, &jobs, "pinned");
        assert_eq!(
            a,
            spec_hash(&machine, 1, &config, &reversed, "pinned"),
            "caller's vector order is immaterial"
        );
        assert_ne!(a, spec_hash(&machine, 1, &config, &jobs, "hotpotato"));
        assert_ne!(a, spec_hash(&machine, 2, &config, &jobs, "pinned"));
        let other = SimConfig {
            t_dtm: 71.0,
            ..config
        };
        assert_ne!(a, spec_hash(&machine, 1, &other, &jobs, "pinned"));
    }

    /// `json` with the state member `key` (a flat array of numbers) cut
    /// out, as a document written without it would read.
    fn without_member(json: &str, key: &str) -> String {
        let start = json
            .find(&format!(",\"{key}\":"))
            .unwrap_or_else(|| panic!("`{key}` member"));
        let len = json[start + 1..].find(",\"").expect("a member follows") + 1;
        format!("{}{}", &json[..start], &json[start + len..])
    }

    fn sample_document() -> String {
        EngineCheckpoint {
            spec_hash: 5,
            state: sample_state(),
        }
        .to_json_string()
    }

    #[test]
    fn missing_modal_member_is_a_parse_error() {
        // `null` is the node-space marker; an absent member is not.
        let json = without_member(&sample_document(), "modal_temps");
        match EngineCheckpoint::from_json_str(&json) {
            Err(CheckpointError::Parse { message }) => {
                assert!(message.contains("modal_temps"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_numerics_stats_is_a_parse_error() {
        let json = without_member(&sample_document(), "numerics_stats");
        match EngineCheckpoint::from_json_str(&json) {
            Err(CheckpointError::Parse { message }) => {
                assert!(message.contains("numerics_stats"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn repeated_state_member_is_a_parse_error() {
        let json = sample_document().replacen("\"step\":42", "\"step\":42,\"step\":42", 1);
        match EngineCheckpoint::from_json_str(&json) {
            Err(CheckpointError::Parse { message }) => {
                assert!(message.contains("`step` is repeated"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn undeclared_state_member_is_a_parse_error() {
        // The digest covers the re-encoding, which would drop the extra
        // member; refusing it keeps an edited document from verifying.
        let json = sample_document().replacen("\"step\":42", "\"step\":42,\"spare\":0", 1);
        match EngineCheckpoint::from_json_str(&json) {
            Err(CheckpointError::Parse { message }) => {
                assert!(message.contains("unknown key `spare`"), "{message}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn modal_member_of_the_wrong_type_is_a_parse_error() {
        let mut state = sample_state();
        state.modal_temps = Some(vec![1.5, 2.5]);
        let json = EngineCheckpoint {
            spec_hash: 5,
            state,
        }
        .to_json_string();
        assert!(json.contains("\"modal_temps\":[1.5,2.5]"));
        for bad in ["\"hot\"", "{}", "[1.5,\"warm\"]", "7"] {
            let tampered = json.replace("[1.5,2.5]", bad);
            assert!(
                matches!(
                    EngineCheckpoint::from_json_str(&tampered),
                    Err(CheckpointError::Parse { .. })
                ),
                "modal_temps = {bad}"
            );
        }
    }

    #[test]
    fn empty_modal_vector_is_not_null() {
        let mut state = sample_state();
        state.modal_temps = Some(Vec::new());
        let ckpt = EngineCheckpoint {
            spec_hash: 9,
            state,
        };
        let json = ckpt.to_json_string();
        assert!(json.contains("\"modal_temps\":[]"));
        let back = EngineCheckpoint::from_json_str(&json).expect("roundtrip");
        assert_eq!(back.state.modal_temps, Some(Vec::new()));
    }

    #[test]
    fn digest_covers_the_modal_state() {
        let mut state = sample_state();
        state.modal_temps = Some(vec![1.5, 2.5]);
        let json = EngineCheckpoint {
            spec_hash: 5,
            state,
        }
        .to_json_string();
        let tampered = json.replace("\"modal_temps\":[1.5,2.5]", "\"modal_temps\":[1.5,2.75]");
        assert_ne!(tampered, json);
        assert!(matches!(
            EngineCheckpoint::from_json_str(&tampered),
            Err(CheckpointError::DigestMismatch { .. })
        ));
    }

    fn small_sim() -> crate::Simulation {
        use hp_manycore::{ArchConfig, Machine};
        let machine = Machine::new(ArchConfig {
            grid_width: 2,
            grid_height: 2,
            ..ArchConfig::default()
        })
        .expect("machine");
        crate::Simulation::new(
            machine,
            hp_thermal::ThermalConfig::default(),
            SimConfig::default(),
        )
        .expect("valid sim config")
    }

    fn small_batch() -> Vec<hp_workload::Job> {
        hp_workload::closed_batch(hp_workload::Benchmark::Blackscholes, 2, 3)
    }

    /// The last checkpoint of a healthy 2×2 run cut short after 120
    /// intervals. `tag` keeps each test's scratch file its own.
    fn interrupted_checkpoint(tag: &str) -> EngineCheckpoint {
        let dir = std::env::temp_dir().join(format!("hp-ckpt-unit-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("run.ckpt.json");
        let mut sim = small_sim();
        sim.run_with_options(
            small_batch(),
            &mut crate::schedulers::PinnedScheduler::new(),
            &crate::RunOptions {
                checkpoint_every_seconds: Some(5e-3),
                checkpoint_path: Some(path.clone()),
                max_intervals: Some(120),
                ..crate::RunOptions::default()
            },
        )
        .expect_err("the interval budget cuts the run short");
        let ckpt = EngineCheckpoint::load_from_path(&path).expect("checkpoint written");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            ckpt.state.modal_temps.is_some(),
            "a healthy run carries its eigen coordinates"
        );
        ckpt
    }

    fn resume(ckpt: EngineCheckpoint) -> crate::Result<crate::Metrics> {
        small_sim().run_with_options(
            small_batch(),
            &mut crate::schedulers::PinnedScheduler::new(),
            &crate::RunOptions {
                resume_from: Some(ckpt),
                ..crate::RunOptions::default()
            },
        )
    }

    fn assert_thermal_state_rejected(result: crate::Result<crate::Metrics>) {
        match result {
            Err(crate::SimError::Checkpoint(CheckpointError::Invalid { message })) => {
                assert!(message.contains("thermal state rejected"), "{message}");
            }
            other => panic!("expected an Invalid checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_a_modal_state_of_the_wrong_length() {
        let mut ckpt = interrupted_checkpoint("modal-length");
        ckpt.state.modal_temps = Some(vec![45.0; 5]);
        assert_thermal_state_rejected(resume(ckpt));
    }

    #[test]
    fn resume_rejects_a_non_finite_modal_state() {
        let mut ckpt = interrupted_checkpoint("modal-nan");
        if let Some(z) = ckpt.state.modal_temps.as_mut() {
            z[3] = f64::NAN;
        }
        assert_thermal_state_rejected(resume(ckpt));
    }

    #[test]
    fn node_space_checkpoint_resumes_in_node_space() {
        // A checkpoint without eigen coordinates (a run that had fallen
        // back to dense stepping) resumes on the dense path, not by
        // re-projecting the node vector.
        let mut ckpt = interrupted_checkpoint("node-space");
        ckpt.state.modal_temps = None;
        let metrics = resume(ckpt).expect("resumed run completes");
        let obs = &metrics.observability;
        assert_eq!(obs.counter("numerics.fallback.activations"), Some(1));
        assert!(obs.counter("numerics.fallback.steps").unwrap_or(0) > 0);
        assert_eq!(obs.counter("numerics.guard.trips"), Some(0));
        assert!(metrics.peak_temperature.is_finite());
    }
}
