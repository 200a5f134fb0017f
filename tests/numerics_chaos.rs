//! Numerics-chaos integration suite: the cross-crate contract of the
//! numerical-integrity layer (DESIGN.md §14).
//!
//! Three sections, each pinning one promise:
//!
//! 1. **No panics on degenerate inputs.** Property tests drive RC-model
//!    construction and both solvers with near-degenerate physics —
//!    capacitance ratios up to ~1e12, near-singular ambient coupling,
//!    extreme vertical/lateral conductance ratios. Every call must
//!    return `Ok` with finite numbers or a typed error; the process
//!    never panics and NaN/Inf never escapes a `Result::Ok`.
//! 2. **The dense fallback is a drop-in.** On healthy models the public
//!    [`DenseStepper`] must track the eigen step to ≤ 1e-6 °C,
//!    and its precomputed epoch map must reproduce its own `step`.
//! 3. **Degradation is observable and deterministic end-to-end.** A
//!    sweep spec with `"thermal": "ill-conditioned"` runs to completion
//!    through `hp-campaign`, lands as `DegradedNumerics` with
//!    `numerics.fallback.activations ≥ 1` in the job's report, and is
//!    bit-identical across reruns — while the default profile on the
//!    same spec stays `Completed` with zero fallback activity.

use hotpotato::{EpochPowerSequence, RotationPeakSolver};
use hp_campaign::{run_campaign, CampaignConfig, CampaignReport, JobStatus, SweepSpec};
use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_thermal::{DenseStepper, RcThermalModel, ThermalConfig, TransientSolver};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Section 1: near-degenerate models never panic, never leak non-finite
// ---------------------------------------------------------------------------

/// Near-degenerate RC configurations: log-uniform scale factors push the
/// capacitance ratio to ~1e12 (the ill-conditioned profile's regime), the
/// ambient coupling towards a singular `B`, and the vertical/lateral
/// conductance balance across six orders of magnitude. All values stay
/// finite and positive, so `ThermalConfig::validate` accepts them — it is
/// the *numerics* downstream that must cope.
fn degenerate_configs() -> impl Strategy<Value = ThermalConfig> {
    (
        -10.0..0.0f64, // log10 scale on c_junction (stiffness)
        -3.0..3.0f64,  // log10 scale on c_sink
        -8.0..0.0f64,  // log10 scale on g_sink_ambient (near-singular B)
        -3.0..3.0f64,  // log10 scale on vertical conductances
        -3.0..2.0f64,  // log10 scale on lateral conductances
    )
        .prop_map(|(cj, cs, conv, vert, lat)| {
            let d = ThermalConfig::default();
            ThermalConfig {
                c_junction: d.c_junction * 10f64.powf(cj),
                c_sink: d.c_sink * 10f64.powf(cs),
                g_sink_ambient: d.g_sink_ambient * 10f64.powf(conv),
                g_junction_spreader: d.g_junction_spreader * 10f64.powf(vert),
                g_spreader_sink: d.g_spreader_sink * 10f64.powf(vert),
                g_lateral_junction: d.g_lateral_junction * 10f64.powf(lat),
                g_lateral_spreader: d.g_lateral_spreader * 10f64.powf(lat),
                g_lateral_sink: d.g_lateral_sink * 10f64.powf(lat),
                ..d
            }
        })
}

fn assert_finite(v: &Vector, what: &str) -> Result<(), TestCaseError> {
    for (i, x) in v.iter().enumerate() {
        prop_assert!(x.is_finite(), "{what}[{i}] = {x} escaped a Result::Ok");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degenerate_models_return_ok_or_typed_error(
        cfg in degenerate_configs(),
        w in 2usize..=3,
        h in 2usize..=3,
        watts in 0.0..8.0f64,
    ) {
        prop_assert!(cfg.validate().is_ok(), "generated config must be physical");
        let fp = GridFloorplan::new(w, h).expect("grid");
        // Construction may reject the model with a typed error; it must
        // not panic and must not hand back non-finite matrices.
        let Ok(model) = RcThermalModel::new(&fp, &cfg) else { return Ok(()) };

        // Health screening always completes on a built model.
        if let Ok(health) = model.validate() {
            prop_assert!(health.condition_estimate.is_finite());
            prop_assert!(health.capacitance_ratio.is_finite());
        }

        let p = Vector::constant(model.core_count(), watts);
        if let Ok(t) = model.steady_state(&p) {
            assert_finite(&t, "steady_state")?;
        }

        // The solver either refuses the model (typed error) or arms its
        // dense fallback and keeps stepping with finite output.
        let Ok(solver) = TransientSolver::new(&model) else { return Ok(()) };
        let mut t = model.ambient_state();
        for _ in 0..3 {
            match solver.step(&model, &t, &p, 5e-4) {
                Ok(next) => {
                    assert_finite(&next, "step")?;
                    t = next;
                }
                Err(_) => return Ok(()), // typed refusal is a valid outcome
            }
        }
        let nu = solver.runtime().numerics();
        prop_assert!(
            !solver.degraded() || nu.fallback_steps > 0 || nu.guard_trips == 0,
            "degraded solver must be stepping densely or clean of trips"
        );
    }

    #[test]
    fn degenerate_peak_queries_never_panic(
        cfg in degenerate_configs(),
        watts in 0.0..8.0f64,
        dt in 1e-4..2e-3f64,
    ) {
        // Algorithm 1 either refuses the model (typed error) or returns a
        // finite steady-cycle peak, on the eigen path or the dense cycle.
        let fp = GridFloorplan::new(2, 2).expect("grid");
        let Ok(model) = RcThermalModel::new(&fp, &cfg) else { return Ok(()) };
        let Ok(solver) = RotationPeakSolver::new(model) else { return Ok(()) };
        let epochs = (0..4).map(|k| {
            let mut p = Vector::constant(4, 0.0);
            p[k] = watts;
            p
        });
        let Ok(seq) = EpochPowerSequence::new(dt, epochs.collect()) else { return Ok(()) };
        if let Ok(t_peak) = solver.peak_celsius(&seq) {
            prop_assert!(t_peak.is_finite(), "peak = {t_peak}");
        }
    }
}

// ---------------------------------------------------------------------------
// Section 2: dense fallback is differentially equivalent on healthy models
// ---------------------------------------------------------------------------

/// Healthy random models: the same mild scale ranges the in-crate
/// property tests use, kept well inside the eigen fast path's comfort
/// zone so the dense stepper can be judged against it.
fn healthy_models() -> impl Strategy<Value = RcThermalModel> {
    (
        2usize..=4,
        2usize..=4,
        0.2..4.0f64,   // sink capacitance scale
        0.5..2.0f64,   // vertical conductance scale
        0.5..2.0f64,   // sink-to-ambient convection scale
        30.0..60.0f64, // ambient, °C
    )
        .prop_map(|(w, h, sink, vertical, conv, ambient)| {
            let d = ThermalConfig::default();
            let cfg = ThermalConfig {
                ambient,
                c_sink: d.c_sink * sink,
                g_junction_spreader: d.g_junction_spreader * vertical,
                g_spreader_sink: d.g_spreader_sink * vertical,
                g_sink_ambient: d.g_sink_ambient * conv,
                ..d
            };
            RcThermalModel::new(&GridFloorplan::new(w, h).expect("grid"), &cfg).expect("model")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_stepper_tracks_eigen_reference(
        model in healthy_models(),
        watts in 0.0..8.0f64,
        // Sub-epoch step sizes: the dense substitution's local error grows
        // as ~dt³ and peaks on the first step out of ambient, so 1e-4 is
        // the largest step that keeps the 1e-6 °C agreement bound with
        // ~4× margin across the model strategy's conductance range.
        dt in 2e-5..1e-4f64,
    ) {
        let solver = TransientSolver::new(&model).unwrap();
        prop_assert!(!solver.degraded(), "healthy model must take the fast path");
        let p = Vector::constant(model.core_count(), watts);
        let f = model.forcing(&p).unwrap();
        let stepper = DenseStepper::new(&model, dt).unwrap();
        // Walk the eigen trajectory and judge the dense stepper's *local*
        // error from each shared state — the per-epoch agreement the
        // fallback substitution relies on.
        let mut t = model.ambient_state();
        for k in 0..20 {
            let eigen = solver.step(&model, &t, &p, dt).unwrap();
            let dense = stepper.step(&t, &f).unwrap();
            let gap = (&eigen - &dense).norm_inf();
            prop_assert!(gap < 1e-6, "step {k}: dense drifted {gap:e} °C from eigen");
            t = eigen;
        }
    }

    #[test]
    fn epoch_map_reproduces_dense_stepping(
        model in healthy_models(),
        watts in 0.0..8.0f64,
        dt in 5e-5..5e-4f64,
    ) {
        // The precomputed affine epoch map `T ↦ M·T + S·f` must agree
        // with the step-by-step route it summarises.
        let p = Vector::constant(model.core_count(), watts);
        let f = model.forcing(&p).unwrap();
        let stepper = DenseStepper::new(&model, dt).unwrap();
        let (m, s) = stepper.epoch_map().unwrap();
        let t0 = model.ambient_state();
        let stepped = stepper.step(&t0, &f).unwrap();
        let mapped = &(&m * &t0) + &(&s * &f);
        let gap = (&stepped - &mapped).norm_inf();
        prop_assert!(gap < 1e-9, "epoch map diverged {gap:e} °C from step()");
    }
}

// ---------------------------------------------------------------------------
// Section 3: end-to-end degradation through spec → campaign → report
// ---------------------------------------------------------------------------

fn drill_spec(thermal: &str) -> SweepSpec {
    let raw = format!(
        "{{\n  \"schedulers\": [\"hotpotato\"],\n  \"benchmarks\": [\"blackscholes\"],\n  \
         \"loads\": [0.5],\n  \"grids\": [\"4x4\"],\n  \"seeds\": [42],\n  \
         \"thermal\": \"{thermal}\",\n  \"horizon_seconds\": 2.0\n}}"
    );
    SweepSpec::from_json_str(&raw).expect("drill spec parses")
}

fn run_drill(thermal: &str) -> CampaignReport {
    let jobs = drill_spec(thermal).expand().expect("drill spec expands");
    assert_eq!(jobs.len(), 1, "single-scenario drill");
    run_campaign(&jobs, &CampaignConfig::default()).expect("campaign runs")
}

#[test]
fn ill_conditioned_sweep_degrades_observably_and_deterministically() {
    let first = run_drill("ill-conditioned");
    let job = &first.jobs[0];
    assert_eq!(job.status, JobStatus::DegradedNumerics, "{}", job.cause);
    assert_eq!(
        job.jobs_completed, job.jobs_total,
        "workload still finishes"
    );
    assert!(
        job.report
            .counter("sched.numerics.fallback.activations")
            .unwrap_or(0)
            >= 1,
        "dense fallback must have activated at least once"
    );
    assert_eq!(job.report.counter("sched.numerics.degraded"), Some(1));
    assert!(
        !job.quarantined,
        "degradation is deterministic, not retryable"
    );
    assert_eq!(first.degraded_numerics(), 1);

    let second = run_drill("ill-conditioned");
    assert_eq!(
        second.without_timings(),
        first.without_timings(),
        "seeded ill-conditioned sweep must be bit-identical across reruns"
    );
}

#[test]
fn default_profile_sweep_stays_clean() {
    // The healthy control: same spec, default physics — no fallback
    // activity, no degradation status, nothing numerics-flavoured in
    // the report beyond zeroed gauges.
    let report = run_drill("default");
    let job = &report.jobs[0];
    assert_eq!(job.status, JobStatus::Completed, "{}", job.cause);
    assert_eq!(
        job.report
            .counter("sched.numerics.fallback.activations")
            .unwrap_or(0),
        0,
        "healthy run must never touch the dense fallback"
    );
    assert_eq!(
        job.report.counter("sched.numerics.degraded").unwrap_or(0),
        0
    );
    assert_eq!(report.degraded_numerics(), 0);
}

// ---------------------------------------------------------------------------
// Section 4: the engine's modal path keeps the envelope guard
// ---------------------------------------------------------------------------

#[test]
fn envelope_violation_on_the_engines_modal_path_switches_to_dense_stepping() {
    use hp_faults::FaultPlan;
    use hp_manycore::{ArchConfig, Machine};
    use hp_sim::schedulers::PinnedScheduler;
    use hp_sim::{RunOptions, SimConfig, SimError, Simulation, TraceEventKind};
    use hp_workload::{closed_batch, Benchmark};

    // A 10 kW spike on one junction for one 100 µs interval heats it by
    // over a kilokelvin: the modal step's full node vector leaves the
    // physical envelope, which must trip the guard and hand the interval
    // — and every later one — to the dense fallback.
    let machine = Machine::new(ArchConfig {
        grid_width: 4,
        grid_height: 4,
        ..ArchConfig::default()
    })
    .expect("4x4 machine");
    let config = SimConfig {
        faults: FaultPlan {
            seed: 3,
            power_spike_rate: 1.0,
            power_spike_watts: 1e4,
            power_spike_intervals: 1,
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(machine, ThermalConfig::default(), config).expect("valid sim");
    let err = sim
        .run_with_options(
            closed_batch(Benchmark::Blackscholes, 2, 1),
            &mut PinnedScheduler::new(),
            &RunOptions {
                max_intervals: Some(20),
                ..RunOptions::default()
            },
        )
        .expect_err("the interval budget stops the run");
    let partial = match &err {
        SimError::Aborted { partial, .. } => partial,
        other => panic!("expected an aborted run with partials, got {other}"),
    };
    let report = &partial.observability;
    assert_eq!(
        report.counter("numerics.guard.trips"),
        Some(1),
        "one trip, then sticky"
    );
    assert_eq!(report.counter("numerics.degraded"), Some(1));
    assert_eq!(report.counter("numerics.fallback.activations"), Some(1));
    let dense_steps = report.counter("numerics.fallback.steps").unwrap_or(0);
    let intervals = report.counter("engine.intervals").unwrap_or(0);
    // The spike lands on the first interval, so every interval is dense.
    assert_eq!(intervals, 20);
    assert_eq!(
        dense_steps, intervals,
        "{dense_steps} dense steps over {intervals} intervals"
    );
    assert_eq!(report.counter("thermal.step_batches"), Some(intervals));
    assert_eq!(
        sim.trace()
            .events()
            .iter()
            .filter(|e| e.kind == TraceEventKind::NumericalDegradation)
            .count(),
        1
    );
    assert!(partial.peak_temperature > 45.0 + 1000.0);
}
