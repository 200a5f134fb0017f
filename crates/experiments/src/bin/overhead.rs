//! §VI run-time overhead — wall-clock cost of a HotPotato scheduling
//! decision on the 64-core chip under full load.
//!
//! The paper measures 23.76 µs per synchronous-rotation schedule
//! computation across 10 000 runs (4.75 % of a 0.5 ms epoch). We time
//! (a) one full-chip Algorithm-1 peak evaluation (the efficient
//! recurrence), (b) the literal Eq.-(10) reference form, (c) sixteen
//! candidate rotations priced by one `peak_celsius_many` call against a
//! loop of the serial reference, a gate the binary asserts (the batch
//! agrees within 1e-9 °C and is at least 2× faster), (d) one
//! Algorithm-2 placement probe with every slot of every ring occupied,
//! as explicit epoch sequences through `peak_celsius_many` and as the
//! one-shot superposition probe `peak_of_rings`, the same one-shot probe
//! with one thread per ring, where its fixed per-probe costs (opening
//! the probe session, reading the slot powers) weigh most, and the
//! scheduler's common case, a trial that changes one ring of the full
//! chip in a warm probe session, (e) the §V node scaling: Algorithm 1
//! at δ = 8 and the design-time eigendecomposition (the median of 11
//! fresh models) on the 4×4, 6×6, 8×8 and 10×10 chips, and the 8×8
//! chip's build by part — `RcThermalModel::new`, `SymmetricEigen::new`
//! on its `S`, `SystemEigen::new` and a fresh model's `basis()`, each
//! the minimum and the median of 11 fresh builds, (f) the engine's
//! transient step at its
//! 100 µs interval, on a warm state whose readout certificate clears the
//! spreader and sink rows (a junction-only readout) and on the first
//! step from `initial_state` (a full readout), and (g) one TSP budget of
//! a 32-core mapping on the 8×8 chip with its junction-influence block
//! `R_J` warm (the DVFS baselines' work on a budget-cache miss) and the
//! first use that builds `R_J` — all through the shared [`hp_obs`]
//! profiler, so the output reports the same p50/p95/max percentiles the
//! engine records for live scheduler hooks.

// The binary builds the explicit probe sequences and times the serial
// loop with the differential tests' own references, and uses nothing
// else of the module.
#[allow(dead_code)]
#[path = "../../../core/tests/support/mod.rs"]
mod support;

use hotpotato::{EpochPowerSequence, RingRotation, RotationPeakSolver};
use hp_experiments::thermal_model_for_grid;
use hp_floorplan::{CoreId, GridFloorplan};
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{Matrix, SymmetricEigen, Vector};
use hp_obs::{Registry, ScopedTimer};
use hp_power::IDLE_WATTS;
use hp_thermal::{tsp, RcThermalModel, ThermalConfig, TransientSolver};
use std::time::Instant;
use support::{explicit_probe_sequences, peak_celsius_sampled_serial};

fn full_load_sequence(cores: usize, delta: usize, tau: f64) -> EpochPowerSequence {
    // A rotation of `delta` epochs over a fully loaded chip: a mix of hot
    // and cool threads shifting one slot per epoch.
    let powers: Vec<f64> = (0..cores)
        .map(|i| if i % 3 == 0 { 7.0 } else { 2.5 })
        .collect();
    let epochs = (0..delta)
        .map(|e| Vector::from_fn(cores, |c| powers[(c + e) % cores]))
        .collect();
    EpochPowerSequence::new(tau, epochs).expect("valid sequence")
}

/// The 8×8 chip's AMD rings with the first `per_ring` slots of each (all
/// of them, if fewer) occupied by the same mix of hot and cool threads as
/// [`full_load_sequence`].
fn loaded_rings(per_ring: usize) -> Vec<RingRotation<f64>> {
    let mut next = 0usize;
    let fp = GridFloorplan::new(8, 8).expect("8x8 grid");
    fp.amd_rings()
        .iter()
        .map(|r| {
            let mut ring = RingRotation::new(r.cores().to_vec());
            for s in 0..ring.capacity().min(per_ring) {
                ring.occupy(s, if next.is_multiple_of(3) { 7.0 } else { 2.5 });
                next += 1;
            }
            ring
        })
        .collect()
}

/// Prints one timed row: `scope` leads the human line, `key` is the
/// row's second `csv,` field.
fn print_summary(scope: &str, key: &str, label: &str, h: &hp_obs::HistogramSummary) {
    println!(
        "{scope}: {label:<24} mean {:>8.2} us | p50 {:>8.2} us | \
         p95 {:>8.2} us | max {:>8.2} us ({} reps)",
        h.mean_us, h.p50_us, h.p95_us, h.max_us, h.count
    );
    println!(
        "csv,overhead,{key},{label},{:.4},{:.4},{:.4},{:.4}",
        h.mean_us, h.p50_us, h.p95_us, h.max_us
    );
}

/// The chips of the §V node-scaling rows.
const CHIPS: [(usize, usize); 4] = [(4, 4), (6, 6), (8, 8), (10, 10)];

/// Fresh builds behind each design-time row.
const BUILDS: usize = 11;

/// Runs `build` on [`BUILDS`] inputs from `fresh`, timing `build` alone
/// (the result is dropped after the clock stops); returns the minimum
/// and the median, ms.
fn min_median_ms<T, R>(mut fresh: impl FnMut() -> T, mut build: impl FnMut(T) -> R) -> (f64, f64) {
    let mut ms: Vec<f64> = (0..BUILDS)
        .map(|_| {
            let input = fresh();
            let start = Instant::now();
            let out = std::hint::black_box(build(input));
            let elapsed = start.elapsed();
            drop(out);
            elapsed.as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    (ms[0], ms[BUILDS / 2])
}

/// `S = A^{-1/2}·B·A^{-1/2}` of `model`, symmetrized as
/// `SystemEigen::new` forms it.
fn symmetrized(model: &RcThermalModel) -> Matrix {
    let (a, b) = (model.a_diag(), model.b());
    let n = a.len();
    let s = Matrix::from_fn(n, n, |i, j| {
        1.0 / a[i].sqrt() * b[(i, j)] * (1.0 / a[j].sqrt())
    });
    Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]))
}

fn main() {
    let model = thermal_model_for_grid(8, 8);
    // A clone shares the basis the peak solver decomposes below.
    let thermal = model.clone();
    let reg = Registry::new();

    let solver = RotationPeakSolver::new(model).expect("eigendecomposition succeeds");
    reg.set_meta("gemm_backend", hp_linalg::Matrix::gemm_backend());

    for delta in [4usize, 8, 16] {
        let seq = full_load_sequence(64, delta, 0.5e-3);
        // Warm up, then measure.
        let _ = solver.peak_celsius(&seq).expect("peak computes");
        let alg1 = format!("alg1.delta{delta}");
        for _ in 0..10_000 {
            let _t = ScopedTimer::start(&reg, &alg1);
            std::hint::black_box(solver.peak_celsius(&seq).expect("peak computes"));
        }
        let reference = format!("eq10.delta{delta}");
        for _ in 0..1_000 {
            let _t = ScopedTimer::start(&reg, &reference);
            std::hint::black_box(solver.peak_reference(&seq).expect("peak computes"));
        }
    }

    // Sixteen candidate rotations at δ = 8, four τ and four epoch shifts,
    // priced as a scheduler batches them. The two arms alternate, so host
    // load slows both alike.
    let taus = [0.25e-3, 0.5e-3, 1e-3, 2e-3];
    let candidates: Vec<_> = (0..16)
        .map(|i| full_load_sequence(64, 8, taus[i % 4]).shifted(i / 4))
        .collect();
    let serial_loop = || -> Vec<f64> {
        candidates
            .iter()
            .map(|s| peak_celsius_sampled_serial(&solver, s, 1))
            .collect()
    };
    let batched = || {
        solver
            .peak_celsius_many(&candidates)
            .expect("batch computes")
    };
    let disagreement = serial_loop()
        .iter()
        .zip(batched())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        disagreement <= 1e-9,
        "batch and serial loop disagree by {disagreement:e} C"
    );
    for _ in 0..200 {
        {
            let _t = ScopedTimer::start(&reg, "alg1.batch16.serial");
            std::hint::black_box(serial_loop());
        }
        let _t = ScopedTimer::start(&reg, "alg1.batch16.batched");
        std::hint::black_box(batched());
    }

    // Algorithm 2's placement probe on the full chip at τ = 0.5 ms.
    let rings = loaded_rings(usize::MAX);
    let explicit = explicit_probe_sequences(64, &rings, IDLE_WATTS, 0.5e-3, true);
    let probe_of = |rings: &[RingRotation<f64>]| {
        solver
            .peak_of_rings(rings, |watts| watts, IDLE_WATTS, 0.5e-3, true)
            .expect("probe computes")
    };
    let probe = || probe_of(&rings);
    let batch = || solver.peak_celsius_many(&explicit).expect("batch computes");
    let batch_peak = batch().into_iter().fold(f64::NEG_INFINITY, f64::max);
    assert!((probe() - batch_peak).abs() <= 1e-9, "probe agrees");
    for _ in 0..2_000 {
        let _t = ScopedTimer::start(&reg, "alg2.explicit");
        std::hint::black_box(batch());
    }
    for _ in 0..10_000 {
        let _t = ScopedTimer::start(&reg, "alg2.superposition");
        std::hint::black_box(probe());
    }
    // Same rings and τ: the kernels are cached already.
    let light = loaded_rings(1);
    for _ in 0..10_000 {
        let _t = ScopedTimer::start(&reg, "alg2.superposition.light");
        std::hint::black_box(probe_of(&light));
    }
    // A warm session, as a scheduling hook holds one: every ring priced
    // once, then a trial that swaps one thread's power on one ring (each
    // ring in turn), so the trial re-sums that ring only.
    for rep in 0..10_000 {
        let mut trial = rings.clone();
        let mut session = solver.session(&trial, IDLE_WATTS).expect("session opens");
        let mut peak = |rings: &[RingRotation<f64>]| {
            session
                .peak(&solver, rings, |watts| watts, 0.5e-3, true)
                .expect("probe computes")
        };
        peak(&trial);
        let ring = &mut trial[rep % rings.len()];
        let hot = ring.occupant(0).expect("every slot is occupied");
        ring.remove(hot);
        ring.occupy(0, if hot > 5.0 { 2.5 } else { 7.0 });
        let _t = ScopedTimer::start(&reg, "alg2.session.trial");
        std::hint::black_box(peak(&trial));
    }

    // §V node scaling. Each decomposition is of a fresh model, since a
    // clone would share its basis.
    let mut nodes = Vec::new();
    let mut design = Vec::new();
    for (w, h) in CHIPS {
        let (_, median) = min_median_ms(
            || thermal_model_for_grid(w, h),
            |model| RotationPeakSolver::new(model).expect("eigendecomposition succeeds"),
        );
        design.push(median);
        let chip = RotationPeakSolver::new(thermal_model_for_grid(w, h))
            .expect("eigendecomposition succeeds");
        nodes.push(chip.model().node_count());
        let seq = full_load_sequence(w * h, 8, 0.5e-3);
        let _ = chip.peak_celsius(&seq).expect("peak computes");
        let alg1 = format!("alg1.{w}x{h}");
        for _ in 0..2_000 {
            let _t = ScopedTimer::start(&reg, &alg1);
            std::hint::black_box(chip.peak_celsius(&seq).expect("peak computes"));
        }
    }

    // The 8×8 chip's build by part, each on fresh inputs: a model's
    // basis is built once and shared by its clones.
    let fp = GridFloorplan::new(8, 8).expect("8x8 grid");
    let config = ThermalConfig::default();
    let s = symmetrized(&thermal);
    let setup = [
        (
            "RcThermalModel::new",
            min_median_ms(
                || (),
                |()| RcThermalModel::new(&fp, &config).expect("model builds"),
            ),
        ),
        (
            "SymmetricEigen::new(S)",
            min_median_ms(
                || (),
                |()| SymmetricEigen::new(&s).expect("eigendecomposition succeeds"),
            ),
        ),
        (
            "SystemEigen::new",
            min_median_ms(
                || (),
                |()| {
                    SystemEigen::new(thermal.a_diag(), thermal.b())
                        .expect("eigendecomposition succeeds")
                },
            ),
        ),
        (
            "basis()",
            min_median_ms(
                || thermal_model_for_grid(8, 8),
                |model| {
                    model.basis().expect("basis builds");
                    model
                },
            ),
        ),
    ];

    // The engine's transient step. A warm state one interval past its
    // full readout, advanced under the same power, is certified by its
    // anchor: only the junctions are read out. The first advance from
    // `initial_state` has no anchor and reads out every node.
    let mut stepper = TransientSolver::new(&thermal).expect("basis is built");
    let power = Vector::from_fn(64, |c| if c % 3 == 0 { 7.0 } else { 2.5 });
    let warm = stepper
        .step(&thermal, &thermal.ambient_state(), &power, 0.05)
        .expect("step computes");
    let mut anchored = stepper.initial_state(&warm).expect("state builds");
    stepper
        .advance(&thermal, &mut anchored, &power, 1e-4)
        .expect("advance computes");
    for _ in 0..10_000 {
        let mut state = anchored.clone();
        let _t = ScopedTimer::start(&reg, "thermal.step.certified");
        stepper
            .advance(&thermal, &mut state, &power, 1e-4)
            .expect("advance computes");
    }
    for _ in 0..10_000 {
        let mut state = stepper.initial_state(&warm).expect("state builds");
        let _t = ScopedTimer::start(&reg, "thermal.step.full");
        stepper
            .advance(&thermal, &mut state, &power, 1e-4)
            .expect("advance computes");
    }

    // TSP's uniform budget: `R_J`'s first build, each on a fresh model
    // (a clone would share it), then one 32-core mapping with `R_J` warm.
    for _ in 0..5 {
        let fresh = thermal_model_for_grid(8, 8);
        let _t = ScopedTimer::start(&reg, "tsp.junction_influence");
        fresh.junction_influence().expect("R_J builds");
    }
    let mapping: Vec<CoreId> = (0..64).step_by(2).map(CoreId).collect();
    let _ = tsp::budget(&thermal, &mapping, 70.0, IDLE_WATTS).expect("budget computes");
    for _ in 0..10_000 {
        let _t = ScopedTimer::start(&reg, "tsp.budget");
        std::hint::black_box(
            tsp::budget(&thermal, &mapping, 70.0, IDLE_WATTS).expect("budget computes"),
        );
    }

    let report = reg.snapshot();
    println!("Run-time overhead on the 64-core chip (paper: 23.76 us per schedule)");
    println!(
        "GEMM backend: {}",
        report.meta_value("gemm_backend").unwrap_or("unknown")
    );
    for delta in [4usize, 8, 16] {
        if let Some(h) = report.histogram(&format!("alg1.delta{delta}")) {
            print_summary(
                &format!("delta={delta:>2}"),
                &delta.to_string(),
                "algorithm 1 (recurrence)",
                h,
            );
            println!(
                "          -> {:.2}% of a 0.5 ms epoch at p50",
                h.p50_us / 500.0 * 100.0
            );
        }
        if let Some(h) = report.histogram(&format!("eq10.delta{delta}")) {
            print_summary(
                &format!("delta={delta:>2}"),
                &delta.to_string(),
                "literal Eq.(10)",
                h,
            );
        }
    }
    println!("Sixteen candidate rotations, delta = 8, priced by one batch and by a serial loop:");
    let serial = report
        .histogram("alg1.batch16.serial")
        .expect("timed above");
    let batch = report
        .histogram("alg1.batch16.batched")
        .expect("timed above");
    print_summary("batch16", "batch16", "serial loop", serial);
    print_summary("batch16", "batch16", "batched", batch);
    let speedup = serial.mean_us / batch.mean_us;
    println!(
        "batch16: batched {speedup:.2}x the serial loop (gate: >= 2x), \
         agreeing within {disagreement:.1e} C (gate: <= 1e-9 C)"
    );
    println!("csv,overhead,batch16,speedup,{speedup:.4},{disagreement:e}");
    assert!(
        speedup >= 2.0,
        "the batch must be at least 2x the serial loop, got {speedup:.2}x"
    );
    println!("Algorithm 2 placement probe, every slot of the 8x8 chip occupied, tau = 0.5 ms:");
    for (label, name) in [
        ("explicit sequences", "alg2.explicit"),
        ("superposition", "alg2.superposition"),
    ] {
        if let Some(h) = report.histogram(name) {
            print_summary("8x8 probe", "probe", label, h);
        }
    }
    println!("The same probe with one thread on each of the chip's rings:");
    if let Some(h) = report.histogram("alg2.superposition.light") {
        print_summary("8x8 probe", "probe-light", "superposition", h);
    }
    println!("A one-ring trial on the full chip in a warm probe session:");
    if let Some(h) = report.histogram("alg2.session.trial") {
        print_summary("8x8 probe", "probe-trial", "warm session", h);
    }
    println!(
        "Node scaling (section V): algorithm 1 at delta = 8, the design-time eigendecomposition:"
    );
    for (((w, h), n), design_ms) in CHIPS.into_iter().zip(nodes).zip(design) {
        let alg1 = report
            .histogram(&format!("alg1.{w}x{h}"))
            .expect("timed above");
        println!(
            "N={n:>3} ({w}x{h}): algorithm 1 mean {:>8.2} us | p50 {:>8.2} us | \
             eigendecomposition median {design_ms:>6.2} ms ({BUILDS} fresh models)",
            alg1.mean_us, alg1.p50_us,
        );
        println!(
            "csv,overhead,nodes,{n},{:.4},{:.4},{design_ms:.4}",
            alg1.mean_us, alg1.p50_us,
        );
    }
    println!("The 8x8 chip's build by part, min and median of {BUILDS} fresh builds:");
    for (part, (min, median)) in setup {
        println!("8x8 setup: {part:<24} min {min:>6.2} ms | median {median:>6.2} ms");
        println!("csv,overhead,setup,8x8,{part},{min:.4},{median:.4}");
    }
    println!("The engine's transient step on the 8x8 chip, dt = 100 us:");
    for (label, name) in [
        ("certified (junctions)", "thermal.step.certified"),
        ("full readout", "thermal.step.full"),
    ] {
        if let Some(h) = report.histogram(name) {
            print_summary("8x8 step", "thermal-step", label, h);
        }
    }
    println!("TSP's uniform budget on the 8x8 chip, every other core active (32):");
    for (label, name) in [
        ("R_J first build", "tsp.junction_influence"),
        ("budget on a warm R_J", "tsp.budget"),
    ] {
        if let Some(h) = report.histogram(name) {
            print_summary("8x8 tsp", "tsp-budget", label, h);
        }
    }
}
