//! Differential tests: Algorithm 1's batched kernel is pitted against
//! the naive serial references in `support`, and Algorithm 2's probe by
//! superposition against the explicit epoch sequences it replaced.
//!
//! Contract (DESIGN.md §6): paths that perform the *same* arithmetic in
//! the same order through the batched GEMM layout must agree **bit for
//! bit** (`to_bits` equality); paths that use a mathematically different
//! textbook formulation (the literal Eq.-10 spectral filters, brute-force
//! transient stepping, the probe's superposition) must agree within
//! documented tolerances; a degraded probe runs the explicit sequences
//! themselves, so it agrees bit for bit. A probe session, whatever it
//! has cached, prices a ring assignment to the bits of a session of one
//! (`peak_of_rings`).

mod support;

use hotpotato::{EpochPowerSequence, HotPotatoConfig, RingRotation, RotationPeakSolver};
use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_power::IDLE_WATTS;
use hp_thermal::{NumericsStats, RcThermalModel, ThermalConfig, TransientSolver};
use support::{explicit_probe_peak, peak_celsius_sampled_serial, peak_report_serial};

fn solver(w: usize, h: usize, cfg: &ThermalConfig) -> RotationPeakSolver {
    let model = RcThermalModel::new(&GridFloorplan::new(w, h).expect("grid"), cfg).expect("model");
    RotationPeakSolver::new(model).expect("decomposes")
}

/// A mixed-power rotation with non-trivial structure on a `n`-core chip.
fn mixed_sequence(cores: usize, delta: usize, tau: f64) -> EpochPowerSequence {
    let epochs = (0..delta)
        .map(|e| Vector::from_fn(cores, |c| ((c * 7 + e * 3) % 11) as f64 * 0.65 + 0.3))
        .collect();
    EpochPowerSequence::new(tau, epochs).expect("valid sequence")
}

/// Non-uniform τ grid used across the edge-case tests (spans epochs
/// from much shorter to much longer than the junction time constant).
const TAUS: [f64; 4] = [0.1e-3, 0.47e-3, 1.3e-3, 4e-3];

/// The paper's 64-core chip. Its `V_Jᵀ` has 64 columns, so the junction
/// readout runs the GEMM's tiled SIMD body; on 4×4 (16 columns, fewer
/// than one column tile) only the GEMM's remainder loop runs.
fn solver_8x8() -> RotationPeakSolver {
    solver(8, 8, &ThermalConfig::default())
}

/// Rotation periods for the 8×8 chip, up to a full 16-core ring.
const DELTAS_8X8: [usize; 4] = [1, 3, 8, 16];

#[test]
fn sampled_batch_matches_serial_bit_for_bit() {
    // The kernel's boundary peak is the sampled oracle at one sample per
    // epoch, on the GEMM's remainder loop (4×4) and its tiled body (8×8).
    let cases: [(RotationPeakSolver, &[usize]); 2] = [
        (solver(4, 4, &ThermalConfig::default()), &[1, 3, 5]),
        (solver_8x8(), &DELTAS_8X8),
    ];
    for (s, deltas) in &cases {
        let cores = s.model().core_count();
        for &delta in *deltas {
            for &tau in &TAUS {
                let seq = mixed_sequence(cores, delta, tau);
                let batched = s.peak_celsius(&seq).unwrap();
                let serial = peak_celsius_sampled_serial(s, &seq, 1);
                assert_eq!(
                    batched.to_bits(),
                    serial.to_bits(),
                    "{cores} cores delta {delta} tau {tau}: {batched} vs {serial}"
                );
            }
        }
    }
}

#[test]
fn report_batch_matches_serial_bit_for_bit() {
    let cases: [(RotationPeakSolver, &[usize]); 2] = [
        (solver(4, 4, &ThermalConfig::default()), &[1, 2, 4, 6]),
        (solver_8x8(), &DELTAS_8X8),
    ];
    for (s, deltas) in &cases {
        let cores = s.model().core_count();
        for &delta in *deltas {
            for &tau in &TAUS {
                let seq = mixed_sequence(cores, delta, tau);
                let batched = s.peak(&seq).unwrap();
                let serial = peak_report_serial(s, &seq);
                assert_eq!(
                    batched.peak_celsius.to_bits(),
                    serial.peak_celsius.to_bits()
                );
                assert_eq!(batched.critical_core, serial.critical_core);
                assert_eq!(batched.critical_epoch, serial.critical_epoch);
                assert_eq!(batched.boundary_temps.len(), serial.boundary_temps.len());
                for (e, (a, b)) in batched
                    .boundary_temps
                    .iter()
                    .zip(&serial.boundary_temps)
                    .enumerate()
                {
                    for c in 0..cores {
                        assert_eq!(
                            a[c].to_bits(),
                            b[c].to_bits(),
                            "{cores} cores delta {delta} tau {tau} boundary {e} core {c}: \
                             {} vs {}",
                            a[c],
                            b[c]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn report_agrees_with_literal_eq10_reference() {
    // Cross-formulation check: the batched report against the O(δ²N²)
    // spectral-filter form of paper Eq. (10). Different math, documented
    // 1e-7 °C bound (see `slow_sink_fast_matches_reference` for why the
    // bound is not tighter).
    let s = solver(4, 4, &ThermalConfig::default());
    for delta in [1usize, 3, 5] {
        for &tau in &TAUS {
            let seq = mixed_sequence(16, delta, tau);
            let fast = s.peak(&seq).unwrap().peak_celsius;
            let reference = s.peak_reference(&seq).unwrap();
            assert!(
                (fast - reference).abs() < 1e-7,
                "delta {delta} tau {tau}: {fast} vs {reference}"
            );
        }
    }
}

#[test]
fn sampled_one_sample_is_boundary_form_bit_for_bit() {
    // The sampled oracle at one sample is the boundary form: same decay
    // data (τ/1 == τ), same recurrence, and its per-core dot products
    // add in the order of the boundary reference's `V·z` mat-vec. The
    // sampled physics claims below therefore speak about the peak the
    // library computes.
    let s = solver(4, 4, &ThermalConfig::default());
    for delta in [1usize, 2, 5] {
        for &tau in &TAUS {
            let seq = mixed_sequence(16, delta, tau);
            let boundary = peak_report_serial(&s, &seq).peak_celsius;
            let sampled = peak_celsius_sampled_serial(&s, &seq, 1);
            assert_eq!(
                boundary.to_bits(),
                sampled.to_bits(),
                "delta {delta} tau {tau}: {boundary} vs {sampled}"
            );
        }
    }
}

#[test]
fn sampled_peak_matches_boundaries_for_rotations() {
    // DESIGN.md §5.2: boundary-max is a faithful proxy for the true
    // within-epoch peak on rotation workloads.
    let s = solver(4, 4, &ThermalConfig::default());
    let ring = [5usize, 6, 10, 9];
    for tau in [0.25e-3, 1e-3, 4e-3] {
        // Two 7 W threads opposite each other on the centre ring.
        let epochs = (0..4)
            .map(|e| {
                let mut p = Vector::constant(16, 0.3);
                p[ring[e % 4]] = 7.0;
                p[ring[(e + 2) % 4]] = 7.0;
                p
            })
            .collect();
        let seq = EpochPowerSequence::new(tau, epochs).expect("valid sequence");
        let boundary = s.peak_celsius(&seq).unwrap();
        let dense = peak_celsius_sampled_serial(&s, &seq, 16);
        assert!(
            dense >= boundary - 1e-9,
            "denser sampling can only raise the max"
        );
        assert!(
            dense - boundary < 0.05,
            "tau {tau}: within-epoch peak {dense:.3} vs boundary {boundary:.3}"
        );
    }
}

#[test]
fn sampled_refinement_is_monotone() {
    // Doubling the sample count keeps every previous sample instant in
    // the set, so the within-epoch max can only grow (up to round-off).
    let s = solver(4, 4, &ThermalConfig::default());
    for delta in [2usize, 4] {
        for &tau in &TAUS {
            let seq = mixed_sequence(16, delta, tau);
            let mut last = f64::NEG_INFINITY;
            for samples in [1usize, 2, 4, 8, 16, 32] {
                let peak = peak_celsius_sampled_serial(&s, &seq, samples);
                assert!(
                    peak >= last - 1e-9,
                    "delta {delta} tau {tau} samples {samples}: {peak} < {last}"
                );
                last = peak;
            }
        }
    }
}

#[test]
fn sampled_peak_matches_brute_force_transient() {
    // Textbook reference: iterate the exact transient stepper to the
    // steady cycle (reduced sink capacitance shortens the slowest time
    // constant), then sample densely within one period and compare with
    // the closed-form sampled peak. Different formulation — documented
    // 1e-3 °C agreement.
    let cfg = ThermalConfig {
        c_sink: 0.005,
        ..ThermalConfig::default()
    };
    let s = solver(4, 4, &cfg);
    let seq = mixed_sequence(16, 4, 0.5e-3);
    let samples = 8usize;
    let closed = peak_celsius_sampled_serial(&s, &seq, samples);

    let transient = TransientSolver::new(s.model()).unwrap();
    let mut t = s.model().ambient_state();
    for k in 0..4000 {
        t = transient
            .step(s.model(), &t, seq.epoch(k % 4), seq.tau())
            .unwrap();
    }
    let sub = seq.tau() / samples as f64;
    let mut brute = f64::NEG_INFINITY;
    for e in 0..4 {
        for _ in 0..samples {
            t = transient.step(s.model(), &t, seq.epoch(e), sub).unwrap();
            brute = brute.max(s.model().core_temperatures(&t).max());
        }
    }
    assert!(
        (closed - brute).abs() < 1e-3,
        "closed {closed:.6} vs brute-force {brute:.6}"
    );
}

#[test]
fn slow_sink_sampled_batch_still_bit_identical() {
    // The near-degenerate eigenmode regime (m within ulps of 1) that
    // historically exposed weight-path drift: the kernel's boundary peak
    // and the sampled oracle at one sample must stay bit-identical even
    // here.
    let cfg = ThermalConfig {
        c_sink: 40000.0,
        g_sink_ambient: 0.02,
        ..ThermalConfig::default()
    };
    let s = solver(3, 3, &cfg);
    for delta in [1usize, 4] {
        for &tau in &TAUS {
            let seq = mixed_sequence(9, delta, tau);
            let batched = s.peak_celsius(&seq).unwrap();
            let serial = peak_celsius_sampled_serial(&s, &seq, 1);
            assert_eq!(batched.to_bits(), serial.to_bits());
        }
    }
}

/// The chip's AMD rings, empty.
fn empty_rings(w: usize, h: usize) -> Vec<RingRotation<f64>> {
    GridFloorplan::new(w, h)
        .expect("grid")
        .amd_rings()
        .iter()
        .map(|r| RingRotation::new(r.cores().to_vec()))
        .collect()
}

/// SplitMix64: a deterministic stream of test inputs.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Probe occupancies of the empty `rings`: the idle chip, a single
/// thread, a full innermost ring, a full largest ring alone, and
/// `random` draws with 60 % of the slots filled at 1–8 W, each with one
/// ring left empty.
fn occupancies(
    rings: &[RingRotation<f64>],
    stream: &mut Stream,
    random: usize,
) -> Vec<Vec<RingRotation<f64>>> {
    let mut cases = vec![rings.to_vec()];
    let mut single = rings.to_vec();
    single[0].occupy(0, 7.0);
    cases.push(single);
    let mut inner = rings.to_vec();
    for s in 0..inner[0].capacity() {
        inner[0].occupy(s, 2.0 + s as f64);
    }
    cases.push(inner);
    let largest = (0..rings.len())
        .max_by_key(|&r| rings[r].capacity())
        .expect("rings");
    let mut full = rings.to_vec();
    for s in 0..full[largest].capacity() {
        full[largest].occupy(s, 1.0 + (s % 5) as f64 * 1.5);
    }
    cases.push(full);
    for _ in 0..random {
        let mut case = rings.to_vec();
        let empty = (stream.next() % rings.len() as u64) as usize;
        for (r, ring) in case.iter_mut().enumerate() {
            for s in 0..ring.capacity() {
                if r != empty && stream.unit() < 0.6 {
                    ring.occupy(s, 1.0 + 7.0 * stream.unit());
                }
            }
        }
        cases.push(case);
    }
    cases
}

/// Tolerance of the probe's superposition against the explicit
/// sequences: same model, same Eq.-(10) weights, different summation
/// order.
const PROBE_TOLERANCE_CELSIUS: f64 = 1e-9;

#[test]
fn probe_matches_explicit_sequences_on_healthy_chips() {
    let mut stream = Stream(42);
    let idle = IDLE_WATTS;
    for (w, h, random) in [(4, 4, 6), (8, 8, 4), (3, 3, 4), (3, 2, 4)] {
        let s = solver(w, h, &ThermalConfig::default());
        let rings = empty_rings(w, h);
        let cases = occupancies(&rings, &mut stream, random);
        // One session for every case, τ and mode, twice over: the second
        // pass reads every ring's maxima from its cache.
        let mut session = s.session(&rings, idle).expect("session");
        for pass in 0..2 {
            for &tau in &HotPotatoConfig::default().tau_levels {
                for case in &cases {
                    for rotating in [true, false] {
                        let probe = s
                            .peak_of_rings(case, |watts| watts, idle, tau, rotating)
                            .expect("probe");
                        let priced = session
                            .peak(&s, case, |watts| watts, tau, rotating)
                            .expect("session probe");
                        assert_eq!(
                            priced.to_bits(),
                            probe.to_bits(),
                            "{w}x{h} pass {pass} tau {tau} rotating {rotating}: {priced} vs {probe}"
                        );
                        let explicit = explicit_probe_peak(&s, case, idle, tau, rotating);
                        assert!(
                            (probe - explicit).abs() <= PROBE_TOLERANCE_CELSIUS,
                            "{w}x{h} tau {tau} rotating {rotating}: {probe} vs {explicit}"
                        );
                    }
                }
            }
        }
        assert!(!s.degraded());
        assert_eq!(s.runtime().numerics(), NumericsStats::default());
    }
}

/// One step of a scheduler-like walk over `rings`: occupy a free slot,
/// free an occupant, move an occupant to another ring, or change the
/// power of one, each with probability ¼ (a no-op when impossible).
fn trial_step(rings: &mut [RingRotation<f64>], stream: &mut Stream) {
    let pick = |stream: &mut Stream, n: usize| (stream.next() % n as u64) as usize;
    let r = pick(stream, rings.len());
    let occupied: Vec<usize> = (0..rings[r].capacity())
        .filter(|&s| rings[r].occupant(s).is_some())
        .collect();
    match stream.next() % 4 {
        0 => {
            let free = rings[r].free_slots().next();
            if let Some(slot) = free {
                rings[r].occupy(slot, 0.3 + 8.0 * stream.unit());
            }
        }
        1 | 2 if !occupied.is_empty() => {
            let slot = occupied[pick(stream, occupied.len())];
            let watts = rings[r].occupant(slot).expect("occupied");
            rings[r].remove(watts);
            let to = pick(stream, rings.len());
            let free = rings[to].free_slots().last();
            match free {
                Some(free) if stream.next().is_multiple_of(2) => rings[to].occupy(free, watts),
                _ => rings[r].occupy(slot, 0.3 + 8.0 * stream.unit()),
            }
        }
        _ => {}
    }
}

#[test]
fn a_session_prices_a_trial_walk_as_sessions_of_one_do() {
    let mut stream = Stream(2024);
    let idle = IDLE_WATTS;
    let taus = HotPotatoConfig::default().tau_levels;
    for (w, h) in [(4, 4), (8, 8), (3, 3), (3, 2)] {
        let s = solver(w, h, &ThermalConfig::default());
        let mut rings = empty_rings(w, h);
        let mut session = s.session(&rings, idle).expect("session");
        let mut tau = taus[1];
        let mut rotating = true;
        for step in 0..300 {
            let before = rings.clone();
            trial_step(&mut rings, &mut stream);
            match stream.next() % 8 {
                0 => tau = taus[(stream.next() % taus.len() as u64) as usize],
                1 => rotating = !rotating,
                _ => {}
            }
            let priced = session
                .peak(&s, &rings, |watts| watts, tau, rotating)
                .expect("session probe");
            let one = s
                .peak_of_rings(&rings, |watts| watts, idle, tau, rotating)
                .expect("probe");
            assert_eq!(
                priced.to_bits(),
                one.to_bits(),
                "{w}x{h} step {step} tau {tau} rotating {rotating}: {priced} vs {one}"
            );
            // Half the trials are undone, as a refused placement is: the
            // session then reads the earlier seats back from its cache.
            if stream.next().is_multiple_of(2) {
                rings = before;
                let reverted = session
                    .peak(&s, &rings, |watts| watts, tau, rotating)
                    .expect("session probe");
                let fresh = s
                    .session(&rings, idle)
                    .and_then(|mut fresh| fresh.peak(&s, &rings, |watts| watts, tau, rotating))
                    .expect("fresh session");
                assert_eq!(reverted.to_bits(), fresh.to_bits(), "{w}x{h} step {step}");
            }
        }
        assert!(!s.degraded());
    }
}

#[test]
fn probe_follows_the_rotation_direction() {
    // Two unequal threads on adjacent slots of the 8×8 chip's 12-slot
    // ring: reversing the ring reverses the rotation, which moves the
    // peak; the probe tracks the explicit sequences both ways.
    let s = solver_8x8();
    let rings = empty_rings(8, 8);
    let r = (0..rings.len())
        .max_by_key(|&r| rings[r].capacity())
        .expect("rings");
    let mut forward = rings.clone();
    forward[r].occupy(0, 9.0);
    forward[r].occupy(1, 1.0);
    let mut backward = forward.clone();
    let mut cores = forward[r].cores().to_vec();
    cores.reverse();
    backward[r] = RingRotation::new(cores);
    backward[r].occupy(rings[r].capacity() - 1, 9.0);
    backward[r].occupy(rings[r].capacity() - 2, 1.0);
    let mut peaks = Vec::new();
    for case in [&forward, &backward] {
        let probe = s
            .peak_of_rings(case, |watts| watts, 0.3, 4e-3, true)
            .expect("probe");
        let explicit = explicit_probe_peak(&s, case, 0.3, 4e-3, true);
        assert!((probe - explicit).abs() <= PROBE_TOLERANCE_CELSIUS);
        peaks.push(probe);
    }
    assert!(
        (peaks[0] - peaks[1]).abs() > 1e-6,
        "the two directions peak apart: {peaks:?}"
    );
}

#[test]
fn armed_probe_is_the_explicit_dense_path_bit_for_bit() {
    let probe_solver = solver(4, 4, &ThermalConfig::ill_conditioned());
    let explicit_solver = solver(4, 4, &ThermalConfig::ill_conditioned());
    assert!(probe_solver.degraded());
    let session_solver = solver(4, 4, &ThermalConfig::ill_conditioned());
    let rings = empty_rings(4, 4);
    let mut session = session_solver.session(&rings, 0.3).expect("session");
    let cases = occupancies(&rings, &mut Stream(7), 2);
    for tau in [0.5e-3, 2e-3] {
        for case in &cases {
            for rotating in [true, false] {
                let probe = probe_solver
                    .peak_of_rings(case, |watts| watts, 0.3, tau, rotating)
                    .expect("probe");
                let explicit = explicit_probe_peak(&explicit_solver, case, 0.3, tau, rotating);
                assert_eq!(
                    probe.to_bits(),
                    explicit.to_bits(),
                    "tau {tau} rotating {rotating}: {probe} vs {explicit}"
                );
                let priced = session
                    .peak(&session_solver, case, |watts| watts, tau, rotating)
                    .expect("session probe");
                assert_eq!(priced.to_bits(), explicit.to_bits());
            }
        }
    }
    let numerics = probe_solver.runtime().numerics();
    assert!(numerics.fallback_steps > 0);
    for s in [&explicit_solver, &session_solver] {
        assert_eq!(numerics, s.runtime().numerics());
        assert_eq!(probe_solver.runtime().stats(), s.runtime().stats());
    }
}

#[test]
fn a_megawatt_slot_trips_the_guard_and_reads_the_dense_path() {
    let probe_solver = solver(4, 4, &ThermalConfig::default());
    let explicit_solver = solver(4, 4, &ThermalConfig::default());
    let session_solver = solver(4, 4, &ThermalConfig::default());
    let mut rings = empty_rings(4, 4);
    // A warm session: the centre ring's maxima are cached before the
    // megawatt seat arrives.
    let mut session = session_solver.session(&rings, 0.3).expect("session");
    rings[1].occupy(3, 5.0);
    session
        .peak(&session_solver, &rings, |watts| watts, 0.5e-3, true)
        .expect("session probe");
    session_solver.runtime().reset_tallies();
    rings[0].occupy(1, 1e6);
    let probe = probe_solver
        .peak_of_rings(&rings, |watts| watts, 0.3, 0.5e-3, true)
        .expect("probe");
    assert!(probe_solver.degraded());
    let explicit = explicit_probe_peak(&explicit_solver, &rings, 0.3, 0.5e-3, true);
    assert_eq!(probe.to_bits(), explicit.to_bits(), "{probe} vs {explicit}");
    let priced = session
        .peak(&session_solver, &rings, |watts| watts, 0.5e-3, true)
        .expect("session probe");
    assert!(session_solver.degraded());
    assert_eq!(
        priced.to_bits(),
        explicit.to_bits(),
        "{priced} vs {explicit}"
    );
    let numerics = probe_solver.runtime().numerics();
    assert_eq!(
        (numerics.guard_trips, numerics.fallback_activations),
        (1, 1)
    );
    assert_eq!(numerics, explicit_solver.runtime().numerics());
    assert_eq!(numerics, session_solver.runtime().numerics());
    let stats = probe_solver.runtime().stats();
    assert_eq!((stats.batch_calls, stats.batched_items), (1, 2));
    assert_eq!(stats, session_solver.runtime().stats());
}

#[test]
fn cached_kernels_leave_the_tallies_as_a_fresh_solver_counts_them() {
    let rings = empty_rings(8, 8);
    let cases = occupancies(&rings, &mut Stream(3), 3);
    let probes = |s: &RotationPeakSolver| -> Vec<u64> {
        let mut bits = Vec::new();
        for tau in [0.25e-3, 1e-3] {
            for case in &cases {
                for rotating in [true, false] {
                    let peak = s
                        .peak_of_rings(case, |watts| watts, 0.3, tau, rotating)
                        .expect("probe");
                    bits.push(peak.to_bits());
                }
            }
        }
        bits
    };
    let fresh = solver_8x8();
    let fresh_bits = probes(&fresh);
    let warm = solver_8x8();
    probes(&warm);
    warm.runtime().reset_tallies();
    assert_eq!(probes(&warm), fresh_bits, "cached kernels, same bits");
    assert_eq!(warm.runtime().stats(), fresh.runtime().stats());
    assert_eq!(warm.runtime().numerics(), fresh.runtime().numerics());
    // The same probes through one session, its maxima cached as it goes,
    // count the same again.
    let sessioned = solver_8x8();
    let mut session = sessioned.session(&rings, 0.3).expect("session");
    let mut bits = Vec::new();
    for tau in [0.25e-3, 1e-3] {
        for case in &cases {
            for rotating in [true, false] {
                let peak = session
                    .peak(&sessioned, case, |watts| watts, tau, rotating)
                    .expect("session probe");
                bits.push(peak.to_bits());
            }
        }
    }
    assert_eq!(bits, fresh_bits, "a session, same bits");
    assert_eq!(sessioned.runtime().stats(), fresh.runtime().stats());
    assert_eq!(sessioned.runtime().numerics(), fresh.runtime().numerics());
    let stats = fresh.runtime().stats();
    assert_eq!((stats.decay_cache_hits, stats.decay_cache_misses), (0, 0));
    // Every rotating probe but the idle chip's counts one batch.
    assert_eq!(stats.batch_calls, 2 * (cases.len() as u64 - 1));
}
