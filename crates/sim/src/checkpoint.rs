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
//! (same trace, same `RunReport::without_timings`).
//!
//! The document is hand-rolled JSON (the workspace carries no JSON
//! backend; see `hp_obs::json`) wrapped in an integrity envelope:
//!
//! ```json
//! {"schema": "hp-ckpt-v2",
//!  "spec_hash": "0011223344556677",
//!  "digest":    "8899aabbccddeeff",
//!  "state": { ... }}
//! ```
//!
//! * `digest` is FNV-1a over the *canonical* encoding of `state`: the
//!   loader decodes the state, re-encodes it canonically and compares.
//!   A corrupted-but-parseable document is a typed
//!   [`CheckpointError::DigestMismatch`], never a silent wrong resume.
//! * `spec_hash` binds the checkpoint to one (machine, config, workload,
//!   scheduler) tuple; resuming against anything else is a typed
//!   [`CheckpointError::SpecMismatch`].
//! * Truncated or malformed documents are [`CheckpointError::Parse`];
//!   an unknown schema string is [`CheckpointError::Version`]. That
//!   includes `hp-ckpt-v1`: its documents carry no modal state, and
//!   re-projecting the node vector would not resume bit-identically.
//!
//! Non-finite floats (a fresh thread's `last_cpi` is ∞) are encoded as
//! the strings `"inf"` / `"-inf"` / `"nan"`; finite floats use Rust's
//! shortest round-trip `Display`, so decode→encode is bit-identical.

use std::fmt::Write as _;
use std::path::Path;

use hp_faults::{ConditionerSnapshot, InjectorSnapshot};
use hp_manycore::Machine;
use hp_obs::json::{escape, parse, Json};
use hp_workload::Job;

use crate::job::ThreadId;
use crate::metrics::{JobRecord, Robustness};
use crate::trace::{TraceEvent, TraceEventKind};
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
/// machine geometry, the full engine configuration (including the fault
/// plan), the workload (in the arrival order the engine will use) and
/// the scheduler's name. Two runs with equal spec hashes walk identical
/// deterministic trajectories, which is what makes mid-run state
/// transplantable between them.
pub(crate) fn spec_hash(
    machine: &Machine,
    config: &SimConfig,
    jobs: &[Job],
    scheduler_name: &str,
) -> u64 {
    let arch = machine.config();
    let mut s = String::new();
    let _ = write!(s, "grid={}x{};", arch.grid_width, arch.grid_height);
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
        config.power_history_window,
        config.prewarm_power,
        config.dtm_hysteresis_celsius,
        config.sensor_staleness_budget_intervals,
    );
    s.push_str("faults=");
    s.push_str(&config.faults.to_json_string());
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

/// One thread's frozen runtime.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ThreadState {
    pub core: usize,
    /// `Some(remaining)` while running, `None` at the barrier.
    pub running: Option<u64>,
    pub stall_until: f64,
    pub warmup_until: f64,
    /// `(samples, window, total_time, total_energy)` of the power
    /// history, verbatim.
    pub history: (Vec<(f64, f64)>, f64, f64, f64),
    pub last_cpi: f64,
    pub migrations: u64,
    pub instructions_retired: u64,
    pub energy: f64,
}

/// One active job's frozen runtime (the `Job` itself is re-bound from
/// the workload at resume; the spec hash guarantees it matches).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActiveJobState {
    pub job: usize,
    pub phase: usize,
    pub completed: Option<f64>,
    pub threads: Vec<ThreadState>,
}

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

/// Frozen observability registry: seed-deterministic counters, gauges
/// and metadata. Wall-clock histograms are deliberately dropped — they
/// are excluded from `RunReport::without_timings` and cannot be resumed
/// meaningfully.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ObsState {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub meta: Vec<(String, String)>,
}

/// Frozen temperature trace + degradation event log.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct TraceState {
    pub times: Vec<f64>,
    pub temps: Vec<Vec<f64>>,
    pub events: Vec<TraceEvent>,
}

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
    pub trace: TraceState,
    /// `SolverStats` of the thermal solver, in declaration order:
    /// `[batch_calls, batched_items, decay_cache_hits, decay_cache_misses]`.
    pub thermal_stats: [u64; 4],
    /// `NumericsStats` of the thermal solver, in declaration order:
    /// `[fallback_activations, fallback_steps, guard_trips]`.
    pub numerics_stats: [u64; 3],
    pub scheduler_name: String,
    pub scheduler_blob: Option<String>,
}

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
        let state = encode_state(&self.state);
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
    ///   structurally wrong state block.
    /// * [`CheckpointError::Version`] — unknown schema string.
    /// * [`CheckpointError::DigestMismatch`] — the state decodes but its
    ///   canonical re-encoding does not hash to the stored digest.
    pub fn from_json_str(src: &str) -> CkptResult<Self> {
        let doc = parse(src).map_err(|e| CheckpointError::Parse {
            message: e.to_string(),
        })?;
        let schema =
            doc.get("schema")
                .and_then(Json::as_str)
                .ok_or_else(|| CheckpointError::Parse {
                    message: "missing `schema` string".into(),
                })?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Version {
                found: schema.to_string(),
            });
        }
        let spec_hash = hex_field(&doc, "spec_hash")?;
        let digest = hex_field(&doc, "digest")?;
        let state_json = doc.get("state").ok_or_else(|| CheckpointError::Parse {
            message: "missing `state` object".into(),
        })?;
        let state = decode_state(state_json)?;
        let found = fnv1a(encode_state(&state).as_bytes());
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

fn hex_field(doc: &Json, key: &str) -> CkptResult<u64> {
    let raw = doc
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::Parse {
            message: format!("missing `{key}` hex string"),
        })?;
    u64::from_str_radix(raw, 16).map_err(|_| CheckpointError::Parse {
        message: format!("`{key}` is not a 64-bit hex value: `{raw}`"),
    })
}

// ---------------------------------------------------------------------
// Canonical encoding. The digest is computed over exactly this output,
// so every choice here (member order, float formatting, no whitespace
// inside the state block) is part of the format contract.
// ---------------------------------------------------------------------

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

fn push_f64_arr(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, v);
    }
    out.push(']');
}

fn push_u64_arr(out: &mut String, vs: &[u64]) {
    out.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn push_usize_arr(out: &mut String, vs: &[usize]) {
    out.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn push_bool_arr(out: &mut String, vs: &[bool]) {
    out.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if v { "true" } else { "false" });
    }
    out.push(']');
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        None => out.push_str("null"),
        Some(v) => push_f64(out, v),
    }
}

fn encode_state(s: &CheckpointState) -> String {
    let mut o = String::with_capacity(4096);
    o.push('{');
    let _ = write!(o, "\"step\":{}", s.step);
    o.push_str(",\"node_temps\":");
    push_f64_arr(&mut o, &s.node_temps);
    o.push_str(",\"modal_temps\":");
    match &s.modal_temps {
        None => o.push_str("null"),
        Some(z) => push_f64_arr(&mut o, z),
    }
    o.push_str(",\"levels\":");
    push_usize_arr(&mut o, &s.levels);
    o.push_str(",\"occupancy\":[");
    for (i, slot) in s.occupancy.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        match slot {
            None => o.push_str("null"),
            Some(t) => {
                let _ = write!(o, "[{},{}]", t.job.0, t.index);
            }
        }
    }
    o.push(']');
    o.push_str(",\"pending\":");
    push_usize_arr(&mut o, &s.pending);
    o.push_str(",\"arrivals\":");
    push_usize_arr(&mut o, &s.arrivals);
    o.push_str(",\"active\":[");
    for (i, a) in s.active.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"job\":{},\"phase\":{},\"completed\":",
            a.job, a.phase
        );
        push_opt_f64(&mut o, a.completed);
        o.push_str(",\"threads\":[");
        for (k, t) in a.threads.iter().enumerate() {
            if k > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"core\":{},\"running\":", t.core);
            match t.running {
                None => o.push_str("null"),
                Some(r) => {
                    let _ = write!(o, "{r}");
                }
            }
            o.push_str(",\"stall_until\":");
            push_f64(&mut o, t.stall_until);
            o.push_str(",\"warmup_until\":");
            push_f64(&mut o, t.warmup_until);
            let (samples, window, total_time, total_energy) = &t.history;
            o.push_str(",\"history\":{\"window\":");
            push_f64(&mut o, *window);
            o.push_str(",\"total_time\":");
            push_f64(&mut o, *total_time);
            o.push_str(",\"total_energy\":");
            push_f64(&mut o, *total_energy);
            o.push_str(",\"samples\":[");
            for (m, &(d, w)) in samples.iter().enumerate() {
                if m > 0 {
                    o.push(',');
                }
                o.push('[');
                push_f64(&mut o, d);
                o.push(',');
                push_f64(&mut o, w);
                o.push(']');
            }
            o.push_str("]}");
            o.push_str(",\"last_cpi\":");
            push_f64(&mut o, t.last_cpi);
            let _ = write!(
                o,
                ",\"migrations\":{},\"instructions_retired\":{},\"energy\":",
                t.migrations, t.instructions_retired
            );
            push_f64(&mut o, t.energy);
            o.push('}');
        }
        o.push_str("]}");
    }
    o.push(']');
    o.push_str(",\"records\":[");
    for (i, r) in s.records.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"job\":{},\"benchmark\":\"{}\",\"threads\":{},\"arrival\":",
            r.job.0,
            escape(&r.benchmark),
            r.threads
        );
        push_f64(&mut o, r.arrival);
        o.push_str(",\"started\":");
        push_f64(&mut o, r.started);
        o.push_str(",\"completed\":");
        push_opt_f64(&mut o, r.completed);
        let _ = write!(
            o,
            ",\"instructions\":{},\"migrations\":{},\"energy\":",
            r.instructions, r.migrations
        );
        push_f64(&mut o, r.energy);
        o.push('}');
    }
    o.push(']');
    let _ = write!(
        o,
        ",\"completed\":{},\"dtm_last_interval\":{}",
        s.completed, s.dtm_last_interval
    );
    o.push_str(",\"dtm_core_latch\":");
    push_bool_arr(&mut o, &s.dtm_core_latch);
    o.push_str(",\"busy_freq_integral\":");
    push_f64(&mut o, s.busy_freq_integral);
    o.push_str(",\"busy_time\":");
    push_f64(&mut o, s.busy_time);
    let _ = write!(o, ",\"sched_was_degraded\":{}", s.sched_was_degraded);
    o.push_str(",\"metrics\":{\"makespan\":");
    push_f64(&mut o, s.metrics.makespan);
    o.push_str(",\"peak_temperature\":");
    push_f64(&mut o, s.metrics.peak_temperature);
    let _ = write!(
        o,
        ",\"dtm_intervals\":{},\"migrations\":{},\"energy\":",
        s.metrics.dtm_intervals, s.metrics.migrations
    );
    push_f64(&mut o, s.metrics.energy);
    o.push_str(",\"simulated_time\":");
    push_f64(&mut o, s.metrics.simulated_time);
    o.push('}');
    let r = &s.robustness;
    let _ = write!(
        o,
        ",\"robustness\":{{\"faults_enabled\":{},\"noisy_readings\":{},\"stuck_readings\":{},\"sensor_dropouts\":{},\"migration_faults\":{},\"power_spikes\":{},\"dropped_actions\":{},\"min_sensor_confidence\":",
        r.faults_enabled,
        r.noisy_readings,
        r.stuck_readings,
        r.sensor_dropouts,
        r.migration_faults,
        r.power_spikes,
        r.dropped_actions
    );
    push_f64(&mut o, r.min_sensor_confidence);
    let _ = write!(
        o,
        ",\"fallback_intervals\":{},\"fallback_activations\":{},\"watchdog_intervals\":{},\"watchdog_activations\":{}}}",
        r.fallback_intervals, r.fallback_activations, r.watchdog_intervals, r.watchdog_activations
    );
    o.push_str(",\"faults\":");
    match &s.faults {
        None => o.push_str("null"),
        Some(fz) => {
            let inj = &fz.injector;
            o.push_str("{\"injector\":{\"rng_state\":");
            push_u64_arr(&mut o, &inj.rng_state);
            o.push_str(",\"stuck_until\":");
            push_u64_arr(&mut o, &inj.stuck_until);
            o.push_str(",\"stuck_value_celsius\":");
            push_f64_arr(&mut o, &inj.stuck_value_celsius);
            let _ = write!(
                o,
                ",\"blackout_until\":{},\"spike_core\":{},\"spike_until\":{},\"interval\":{}",
                inj.blackout_until, inj.spike_core, inj.spike_until, inj.interval
            );
            let st = &inj.stats;
            let _ = write!(
                o,
                ",\"stats\":{{\"noisy_readings\":{},\"stuck_episodes\":{},\"stuck_readings\":{},\"dropouts\":{},\"migration_failures\":{},\"migration_blackouts\":{},\"power_spikes\":{}}}}}",
                st.noisy_readings,
                st.stuck_episodes,
                st.stuck_readings,
                st.dropouts,
                st.migration_failures,
                st.migration_blackouts,
                st.power_spikes
            );
            let c = &fz.conditioner;
            o.push_str(",\"conditioner\":{\"last_good_celsius\":");
            push_f64_arr(&mut o, &c.last_good_celsius);
            o.push_str(",\"staleness\":");
            push_u64_arr(&mut o, &c.staleness);
            o.push_str(",\"seen\":");
            push_bool_arr(&mut o, &c.seen);
            o.push('}');
            o.push_str(",\"sensed_temps\":");
            push_f64_arr(&mut o, &fz.sensed_temps);
            o.push_str(",\"confidence\":");
            push_f64_arr(&mut o, &fz.confidence);
            let _ = write!(o, ",\"sensors_degraded\":{}}}", fz.sensors_degraded);
        }
    }
    o.push_str(",\"obs\":{\"counters\":[");
    for (i, (name, v)) in s.obs.counters.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "[\"{}\",{v}]", escape(name));
    }
    o.push_str("],\"gauges\":[");
    for (i, (name, v)) in s.obs.gauges.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "[\"{}\",", escape(name));
        push_f64(&mut o, *v);
        o.push(']');
    }
    o.push_str("],\"meta\":[");
    for (i, (name, v)) in s.obs.meta.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "[\"{}\",\"{}\"]", escape(name), escape(v));
    }
    o.push_str("]}");
    o.push_str(",\"trace\":{\"times\":");
    push_f64_arr(&mut o, &s.trace.times);
    o.push_str(",\"temps\":[");
    for (i, row) in s.trace.temps.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        push_f64_arr(&mut o, row);
    }
    o.push_str("],\"events\":[");
    for (i, ev) in s.trace.events.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push('[');
        push_f64(&mut o, ev.time_seconds);
        let _ = write!(o, ",\"{}\",\"{}\"]", ev.kind.label(), escape(&ev.detail));
    }
    o.push_str("]}");
    o.push_str(",\"thermal_stats\":");
    push_u64_arr(&mut o, &s.thermal_stats);
    o.push_str(",\"numerics_stats\":");
    push_u64_arr(&mut o, &s.numerics_stats);
    let _ = write!(
        o,
        ",\"scheduler\":{{\"name\":\"{}\"",
        escape(&s.scheduler_name)
    );
    o.push_str(",\"blob\":");
    match &s.scheduler_blob {
        None => o.push_str("null"),
        Some(b) => {
            let _ = write!(o, "\"{}\"", escape(b));
        }
    }
    o.push_str("}}");
    o
}

// ---------------------------------------------------------------------
// Decoding. Every shape failure is CheckpointError::Parse naming the
// field, so a hand-edited or truncated document fails loudly.
// ---------------------------------------------------------------------

fn shape(what: &str, wanted: &str) -> CheckpointError {
    CheckpointError::Parse {
        message: format!("state field `{what}` is not {wanted}"),
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> CkptResult<&'a Json> {
    obj.get(key).ok_or_else(|| CheckpointError::Parse {
        message: format!("state field `{key}` is missing"),
    })
}

fn dec_u64(v: &Json, what: &str) -> CkptResult<u64> {
    v.as_u64().ok_or_else(|| shape(what, "an unsigned integer"))
}

fn dec_usize(v: &Json, what: &str) -> CkptResult<usize> {
    match v {
        Json::Num(raw) => raw
            .parse::<usize>()
            .map_err(|_| shape(what, "an unsigned integer")),
        _ => Err(shape(what, "an unsigned integer")),
    }
}

fn dec_bool(v: &Json, what: &str) -> CkptResult<bool> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(shape(what, "a boolean")),
    }
}

fn dec_str(v: &Json, what: &str) -> CkptResult<String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| shape(what, "a string"))
}

fn dec_f64(v: &Json, what: &str) -> CkptResult<f64> {
    match v {
        Json::Num(_) => v.as_f64().ok_or_else(|| shape(what, "a number")),
        Json::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            _ => Err(shape(what, "a number or \"inf\"/\"-inf\"/\"nan\"")),
        },
        _ => Err(shape(what, "a number")),
    }
}

fn arr<'a>(v: &'a Json, what: &str) -> CkptResult<&'a [Json]> {
    match v {
        Json::Arr(items) => Ok(items),
        _ => Err(shape(what, "an array")),
    }
}

fn dec_f64_vec(v: &Json, what: &str) -> CkptResult<Vec<f64>> {
    arr(v, what)?.iter().map(|x| dec_f64(x, what)).collect()
}

fn dec_u64_vec(v: &Json, what: &str) -> CkptResult<Vec<u64>> {
    arr(v, what)?.iter().map(|x| dec_u64(x, what)).collect()
}

fn dec_usize_vec(v: &Json, what: &str) -> CkptResult<Vec<usize>> {
    arr(v, what)?.iter().map(|x| dec_usize(x, what)).collect()
}

fn dec_bool_vec(v: &Json, what: &str) -> CkptResult<Vec<bool>> {
    arr(v, what)?.iter().map(|x| dec_bool(x, what)).collect()
}

fn dec_opt_f64(v: &Json, what: &str) -> CkptResult<Option<f64>> {
    match v {
        Json::Null => Ok(None),
        other => dec_f64(other, what).map(Some),
    }
}

fn decode_state(v: &Json) -> CkptResult<CheckpointState> {
    if !matches!(v, Json::Obj(_)) {
        return Err(shape("state", "an object"));
    }
    let step = dec_u64(field(v, "step")?, "step")?;
    let node_temps = dec_f64_vec(field(v, "node_temps")?, "node_temps")?;
    let modal_temps = match field(v, "modal_temps")? {
        Json::Null => None,
        z => Some(dec_f64_vec(z, "modal_temps")?),
    };
    let levels = dec_usize_vec(field(v, "levels")?, "levels")?;
    let occupancy = arr(field(v, "occupancy")?, "occupancy")?
        .iter()
        .map(|slot| match slot {
            Json::Null => Ok(None),
            Json::Arr(pair) => match pair.as_slice() {
                [j, i] => Ok(Some(ThreadId {
                    job: hp_workload::JobId(dec_usize(j, "occupancy job")?),
                    index: dec_usize(i, "occupancy index")?,
                })),
                _ => Err(shape("occupancy", "a [job, index] pair or null")),
            },
            _ => Err(shape("occupancy", "a [job, index] pair or null")),
        })
        .collect::<CkptResult<Vec<_>>>()?;
    let pending = dec_usize_vec(field(v, "pending")?, "pending")?;
    let arrivals = dec_usize_vec(field(v, "arrivals")?, "arrivals")?;
    let active = arr(field(v, "active")?, "active")?
        .iter()
        .map(decode_active_job)
        .collect::<CkptResult<Vec<_>>>()?;
    let records = arr(field(v, "records")?, "records")?
        .iter()
        .map(decode_record)
        .collect::<CkptResult<Vec<_>>>()?;
    let completed = dec_u64(field(v, "completed")?, "completed")?;
    let dtm_last_interval = dec_bool(field(v, "dtm_last_interval")?, "dtm_last_interval")?;
    let dtm_core_latch = dec_bool_vec(field(v, "dtm_core_latch")?, "dtm_core_latch")?;
    let busy_freq_integral = dec_f64(field(v, "busy_freq_integral")?, "busy_freq_integral")?;
    let busy_time = dec_f64(field(v, "busy_time")?, "busy_time")?;
    let sched_was_degraded = dec_bool(field(v, "sched_was_degraded")?, "sched_was_degraded")?;
    let m = field(v, "metrics")?;
    let metrics = MetricsState {
        makespan: dec_f64(field(m, "makespan")?, "metrics.makespan")?,
        peak_temperature: dec_f64(field(m, "peak_temperature")?, "metrics.peak_temperature")?,
        dtm_intervals: dec_u64(field(m, "dtm_intervals")?, "metrics.dtm_intervals")?,
        migrations: dec_u64(field(m, "migrations")?, "metrics.migrations")?,
        energy: dec_f64(field(m, "energy")?, "metrics.energy")?,
        simulated_time: dec_f64(field(m, "simulated_time")?, "metrics.simulated_time")?,
    };
    let r = field(v, "robustness")?;
    let robustness = Robustness {
        faults_enabled: dec_bool(field(r, "faults_enabled")?, "robustness.faults_enabled")?,
        noisy_readings: dec_u64(field(r, "noisy_readings")?, "robustness.noisy_readings")?,
        stuck_readings: dec_u64(field(r, "stuck_readings")?, "robustness.stuck_readings")?,
        sensor_dropouts: dec_u64(field(r, "sensor_dropouts")?, "robustness.sensor_dropouts")?,
        migration_faults: dec_u64(field(r, "migration_faults")?, "robustness.migration_faults")?,
        power_spikes: dec_u64(field(r, "power_spikes")?, "robustness.power_spikes")?,
        dropped_actions: dec_u64(field(r, "dropped_actions")?, "robustness.dropped_actions")?,
        min_sensor_confidence: dec_f64(
            field(r, "min_sensor_confidence")?,
            "robustness.min_sensor_confidence",
        )?,
        fallback_intervals: dec_u64(
            field(r, "fallback_intervals")?,
            "robustness.fallback_intervals",
        )?,
        fallback_activations: dec_u64(
            field(r, "fallback_activations")?,
            "robustness.fallback_activations",
        )?,
        watchdog_intervals: dec_u64(
            field(r, "watchdog_intervals")?,
            "robustness.watchdog_intervals",
        )?,
        watchdog_activations: dec_u64(
            field(r, "watchdog_activations")?,
            "robustness.watchdog_activations",
        )?,
    };
    let faults = match field(v, "faults")? {
        Json::Null => None,
        f => Some(decode_faults(f)?),
    };
    let ob = field(v, "obs")?;
    let obs = ObsState {
        counters: arr(field(ob, "counters")?, "obs.counters")?
            .iter()
            .map(|e| {
                let pair = arr(e, "obs.counters entry")?;
                match pair {
                    [name, val] => Ok((
                        dec_str(name, "obs counter name")?,
                        dec_u64(val, "obs counter value")?,
                    )),
                    _ => Err(shape("obs.counters", "[name, value] pairs")),
                }
            })
            .collect::<CkptResult<Vec<_>>>()?,
        gauges: arr(field(ob, "gauges")?, "obs.gauges")?
            .iter()
            .map(|e| {
                let pair = arr(e, "obs.gauges entry")?;
                match pair {
                    [name, val] => Ok((
                        dec_str(name, "obs gauge name")?,
                        dec_f64(val, "obs gauge value")?,
                    )),
                    _ => Err(shape("obs.gauges", "[name, value] pairs")),
                }
            })
            .collect::<CkptResult<Vec<_>>>()?,
        meta: arr(field(ob, "meta")?, "obs.meta")?
            .iter()
            .map(|e| {
                let pair = arr(e, "obs.meta entry")?;
                match pair {
                    [name, val] => Ok((
                        dec_str(name, "obs meta name")?,
                        dec_str(val, "obs meta value")?,
                    )),
                    _ => Err(shape("obs.meta", "[name, value] pairs")),
                }
            })
            .collect::<CkptResult<Vec<_>>>()?,
    };
    let tr = field(v, "trace")?;
    let trace = TraceState {
        times: dec_f64_vec(field(tr, "times")?, "trace.times")?,
        temps: arr(field(tr, "temps")?, "trace.temps")?
            .iter()
            .map(|row| dec_f64_vec(row, "trace.temps row"))
            .collect::<CkptResult<Vec<_>>>()?,
        events: arr(field(tr, "events")?, "trace.events")?
            .iter()
            .map(|e| {
                let triple = arr(e, "trace.events entry")?;
                match triple {
                    [t, kind, detail] => {
                        let label = dec_str(kind, "trace event kind")?;
                        let kind = TraceEventKind::from_label(&label).ok_or_else(|| {
                            CheckpointError::Parse {
                                message: format!("unknown trace event kind `{label}`"),
                            }
                        })?;
                        Ok(TraceEvent {
                            time_seconds: dec_f64(t, "trace event time")?,
                            kind,
                            detail: dec_str(detail, "trace event detail")?,
                        })
                    }
                    _ => Err(shape("trace.events", "[time, kind, detail] triples")),
                }
            })
            .collect::<CkptResult<Vec<_>>>()?,
    };
    let ts = dec_u64_vec(field(v, "thermal_stats")?, "thermal_stats")?;
    let thermal_stats: [u64; 4] = ts
        .try_into()
        .map_err(|_| shape("thermal_stats", "an array of 4 counters"))?;
    let numerics_stats: [u64; 3] = dec_u64_vec(field(v, "numerics_stats")?, "numerics_stats")?
        .try_into()
        .map_err(|_| shape("numerics_stats", "an array of 3 counters"))?;
    let sc = field(v, "scheduler")?;
    let scheduler_name = dec_str(field(sc, "name")?, "scheduler.name")?;
    let scheduler_blob = match field(sc, "blob")? {
        Json::Null => None,
        b => Some(dec_str(b, "scheduler.blob")?),
    };
    Ok(CheckpointState {
        step,
        node_temps,
        modal_temps,
        levels,
        occupancy,
        pending,
        arrivals,
        active,
        records,
        completed,
        dtm_last_interval,
        dtm_core_latch,
        busy_freq_integral,
        busy_time,
        sched_was_degraded,
        metrics,
        robustness,
        faults,
        obs,
        trace,
        thermal_stats,
        numerics_stats,
        scheduler_name,
        scheduler_blob,
    })
}

fn decode_active_job(v: &Json) -> CkptResult<ActiveJobState> {
    let job = dec_usize(field(v, "job")?, "active job id")?;
    let phase = dec_usize(field(v, "phase")?, "active job phase")?;
    let completed = dec_opt_f64(field(v, "completed")?, "active job completed")?;
    let threads = arr(field(v, "threads")?, "active job threads")?
        .iter()
        .map(|t| {
            let core = dec_usize(field(t, "core")?, "thread core")?;
            let running = match field(t, "running")? {
                Json::Null => None,
                r => Some(dec_u64(r, "thread running")?),
            };
            let h = field(t, "history")?;
            let samples = arr(field(h, "samples")?, "history samples")?
                .iter()
                .map(|s| {
                    let pair = arr(s, "history sample")?;
                    match pair {
                        [d, w] => Ok((
                            dec_f64(d, "history sample duration")?,
                            dec_f64(w, "history sample watts")?,
                        )),
                        _ => Err(shape("history samples", "[duration, watts] pairs")),
                    }
                })
                .collect::<CkptResult<Vec<_>>>()?;
            Ok(ThreadState {
                core,
                running,
                stall_until: dec_f64(field(t, "stall_until")?, "thread stall_until")?,
                warmup_until: dec_f64(field(t, "warmup_until")?, "thread warmup_until")?,
                history: (
                    samples,
                    dec_f64(field(h, "window")?, "history window")?,
                    dec_f64(field(h, "total_time")?, "history total_time")?,
                    dec_f64(field(h, "total_energy")?, "history total_energy")?,
                ),
                last_cpi: dec_f64(field(t, "last_cpi")?, "thread last_cpi")?,
                migrations: dec_u64(field(t, "migrations")?, "thread migrations")?,
                instructions_retired: dec_u64(
                    field(t, "instructions_retired")?,
                    "thread instructions_retired",
                )?,
                energy: dec_f64(field(t, "energy")?, "thread energy")?,
            })
        })
        .collect::<CkptResult<Vec<_>>>()?;
    Ok(ActiveJobState {
        job,
        phase,
        completed,
        threads,
    })
}

fn decode_record(v: &Json) -> CkptResult<JobRecord> {
    Ok(JobRecord {
        job: hp_workload::JobId(dec_usize(field(v, "job")?, "record job")?),
        benchmark: dec_str(field(v, "benchmark")?, "record benchmark")?,
        threads: dec_usize(field(v, "threads")?, "record threads")?,
        arrival: dec_f64(field(v, "arrival")?, "record arrival")?,
        started: dec_f64(field(v, "started")?, "record started")?,
        completed: dec_opt_f64(field(v, "completed")?, "record completed")?,
        instructions: dec_u64(field(v, "instructions")?, "record instructions")?,
        migrations: dec_u64(field(v, "migrations")?, "record migrations")?,
        energy: dec_f64(field(v, "energy")?, "record energy")?,
    })
}

fn decode_faults(v: &Json) -> CkptResult<FaultState> {
    let inj = field(v, "injector")?;
    let rng = dec_u64_vec(field(inj, "rng_state")?, "injector rng_state")?;
    let rng_state: [u64; 4] = rng
        .try_into()
        .map_err(|_| shape("injector rng_state", "an array of 4 words"))?;
    let stats_v = field(inj, "stats")?;
    let stats = hp_faults::FaultStats {
        noisy_readings: dec_u64(field(stats_v, "noisy_readings")?, "fault stats")?,
        stuck_episodes: dec_u64(field(stats_v, "stuck_episodes")?, "fault stats")?,
        stuck_readings: dec_u64(field(stats_v, "stuck_readings")?, "fault stats")?,
        dropouts: dec_u64(field(stats_v, "dropouts")?, "fault stats")?,
        migration_failures: dec_u64(field(stats_v, "migration_failures")?, "fault stats")?,
        migration_blackouts: dec_u64(field(stats_v, "migration_blackouts")?, "fault stats")?,
        power_spikes: dec_u64(field(stats_v, "power_spikes")?, "fault stats")?,
    };
    let injector = InjectorSnapshot {
        rng_state,
        stuck_until: dec_u64_vec(field(inj, "stuck_until")?, "injector stuck_until")?,
        stuck_value_celsius: dec_f64_vec(
            field(inj, "stuck_value_celsius")?,
            "injector stuck_value_celsius",
        )?,
        blackout_until: dec_u64(field(inj, "blackout_until")?, "injector blackout_until")?,
        spike_core: dec_usize(field(inj, "spike_core")?, "injector spike_core")?,
        spike_until: dec_u64(field(inj, "spike_until")?, "injector spike_until")?,
        interval: dec_u64(field(inj, "interval")?, "injector interval")?,
        stats,
    };
    let c = field(v, "conditioner")?;
    let conditioner = ConditionerSnapshot {
        last_good_celsius: dec_f64_vec(
            field(c, "last_good_celsius")?,
            "conditioner last_good_celsius",
        )?,
        staleness: dec_u64_vec(field(c, "staleness")?, "conditioner staleness")?,
        seen: dec_bool_vec(field(c, "seen")?, "conditioner seen")?,
    };
    Ok(FaultState {
        injector,
        conditioner,
        sensed_temps: dec_f64_vec(field(v, "sensed_temps")?, "faults sensed_temps")?,
        confidence: dec_f64_vec(field(v, "confidence")?, "faults confidence")?,
        sensors_degraded: dec_bool(field(v, "sensors_degraded")?, "faults sensors_degraded")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
                threads: vec![ThreadState {
                    core: 0,
                    running: Some(12345),
                    stall_until: 0.0015,
                    warmup_until: 0.002,
                    history: (vec![(1e-4, 2.5), (1e-4, 2.75)], 0.01, 2e-4, 5.25e-4),
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
            trace: TraceState {
                times: vec![0.0, 1e-4],
                temps: vec![vec![45.0, 46.0], vec![45.5, 46.5]],
                events: vec![TraceEvent {
                    time_seconds: 1e-4,
                    kind: TraceEventKind::WatchdogEngaged,
                    detail: "peak 70.1 C".into(),
                }],
            },
            thermal_stats: [42, 42, 41, 1],
            numerics_stats: [0, 0, 0],
            scheduler_name: "hotpotato".into(),
            scheduler_blob: Some("{\"tau_index\":1}".into()),
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
        state.scheduler_blob = None;
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
        let a = spec_hash(&machine, &config, &jobs, "pinned");
        assert_eq!(
            a,
            spec_hash(&machine, &config, &reversed, "pinned"),
            "caller's vector order is immaterial"
        );
        assert_ne!(a, spec_hash(&machine, &config, &jobs, "hotpotato"));
        let other = SimConfig {
            t_dtm: 71.0,
            ..config
        };
        assert_ne!(a, spec_hash(&machine, &other, &jobs, "pinned"));
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
