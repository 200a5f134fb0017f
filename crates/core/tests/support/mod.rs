//! Serial references the differential tests and `overhead`'s batch gate
//! hold [`RotationPeakSolver`]'s kernel to, the sampled oracle the
//! within-epoch physics claims rest on, and the explicit epoch sequences
//! its Algorithm-2 probe is held to.
//!
//! The serial references close each steady cycle with the same Eq.-(10)
//! start state and one-epoch recurrence as the library, but read the
//! junctions out with one `V·z` mat-vec or one dot product per boundary
//! instead of the row-stacked `Z × V_Jᵀ` GEMM. Both accumulate every
//! temperature in ascending index order, so the two must agree bit for
//! bit.

use hotpotato::{EpochPowerSequence, PeakReport, RingRotation, RotationPeakSolver};
use hp_floorplan::CoreId;
use hp_linalg::convert::usize_to_f64;
use hp_linalg::{Matrix, Vector};
use hp_thermal::ModalDecay;

/// `e^{age·λτ}·(1 − e^{λτ})/(1 − e^{δλτ})`, the Eq.-(10) weight, in the
/// library's arithmetic (`expm1`, uniform `1/δ` where `δλτ` underflows).
fn cycle_weight(lam_tau: f64, delta: usize, age: usize) -> f64 {
    let den = -f64::exp_m1(usize_to_f64(delta) * lam_tau);
    if den < f64::MIN_POSITIVE {
        return 1.0 / usize_to_f64(delta);
    }
    (usize_to_f64(age) * lam_tau).exp() * -f64::exp_m1(lam_tau) / den
}

/// The eigen-space steady state of every epoch of `seq` and the cycle's
/// Eq.-(10) start state under `decay`.
fn cycle_start(
    solver: &RotationPeakSolver,
    seq: &EpochPowerSequence,
    decay: &ModalDecay,
) -> (Vec<Vector>, Vector) {
    let (delta, nodes) = (seq.delta(), solver.model().node_count());
    let p_t = Matrix::from_fn(delta, seq.core_count(), |e, j| seq.epoch(e)[j]);
    let y_t = solver
        .runtime()
        .basis()
        .steady_modal(&p_t)
        .expect("steady states");
    let ys: Vec<Vector> = (0..delta)
        .map(|e| Vector::from(y_t.row(e).to_vec()))
        .collect();
    let z = Vector::from_fn(nodes, |i| {
        let (mut acc, mut pow) = (0.0, 1.0);
        for e in (0..delta).rev() {
            acc += pow * ys[e][i];
            pow *= decay.m[i];
        }
        cycle_weight(decay.lam_dt[i], delta, 0) * acc
    });
    (ys, z)
}

/// One step of the recurrence `z ← m∘z + (1 − m)∘y`.
fn relax(z: &mut Vector, decay: &ModalDecay, y: &Vector) {
    for i in 0..z.len() {
        z[i] = decay.m[i] * z[i] + decay.one_minus_m[i] * y[i];
    }
}

/// [`RotationPeakSolver::peak`] with one full `V·z` mat-vec per boundary.
pub fn peak_report_serial(solver: &RotationPeakSolver, seq: &EpochPowerSequence) -> PeakReport {
    let decay = solver.runtime().lock().decay(seq.tau());
    let (ys, mut z) = cycle_start(solver, seq, &decay);
    let mut boundary_temps = Vec::with_capacity(ys.len());
    for y in &ys {
        relax(&mut z, &decay, y);
        let nodes = solver.eigen().v().mul_vector(&z);
        boundary_temps.push(solver.model().core_temperatures(&nodes));
    }
    let (mut peak, mut core, mut epoch) = (f64::NEG_INFINITY, 0, 0);
    for (e, temps) in boundary_temps.iter().enumerate() {
        for (c, &t) in temps.iter().enumerate() {
            if t > peak {
                (peak, core, epoch) = (t, c, e);
            }
        }
    }
    PeakReport {
        peak_celsius: peak,
        critical_core: CoreId(core),
        critical_epoch: epoch,
        boundary_temps,
    }
}

/// The steady cycle's hottest junction with every epoch sampled at
/// `samples` evenly spaced instants (the last one its end), by one
/// junction dot product per core and sample instant. The library samples
/// epoch boundaries only; this oracle makes the within-epoch claims
/// testable, and `samples == 1` is the boundary form,
/// [`RotationPeakSolver::peak_celsius`], bit for bit.
pub fn peak_celsius_sampled_serial(
    solver: &RotationPeakSolver,
    seq: &EpochPowerSequence,
    samples: usize,
) -> f64 {
    let decay = solver.runtime().lock().decay(seq.tau());
    let sub = solver
        .runtime()
        .lock()
        .decay(seq.tau() / usize_to_f64(samples));
    let (ys, mut z) = cycle_start(solver, seq, &decay);
    let v = solver.eigen().v();
    let mut peak = f64::NEG_INFINITY;
    for y in &ys {
        for _ in 0..samples {
            relax(&mut z, &sub, y);
            for c in 0..seq.core_count() {
                let t: f64 = v.row(c).iter().zip(z.iter()).map(|(a, b)| a * b).sum();
                peak = peak.max(t);
            }
        }
    }
    peak
}

/// The explicit epoch sequences of an Algorithm-2 probe, built as the
/// scheduler built them before [`RotationPeakSolver::peak_of_rings`]
/// existed: rotating, one sequence per occupied ring over the
/// ring-averaged background, occupants shifted by `e` slots in epoch
/// `e`; pinned, or with no ring occupied, one epoch of every thread on
/// its slot.
pub fn explicit_probe_sequences(
    cores: usize,
    rings: &[RingRotation<f64>],
    idle: f64,
    tau: f64,
    rotating: bool,
) -> Vec<EpochPowerSequence> {
    let pinned = || {
        let mut p = Vector::constant(cores, idle);
        for ring in rings {
            for s in 0..ring.capacity() {
                if let Some(w) = ring.occupant(s) {
                    p[ring.core_of_slot(s).index()] = w;
                }
            }
        }
        vec![EpochPowerSequence::new(tau.max(1e-6), vec![p]).expect("valid")]
    };
    if !rotating {
        return pinned();
    }
    let mut background = Vector::constant(cores, idle);
    for ring in rings {
        let occ = ring.occupants();
        if occ == 0 {
            continue;
        }
        let sum: f64 = (0..ring.capacity()).filter_map(|s| ring.occupant(s)).sum();
        let avg =
            (sum + usize_to_f64(ring.capacity() - occ) * idle) / usize_to_f64(ring.capacity());
        for &c in ring.cores() {
            background[c.index()] = avg;
        }
    }
    let mut seqs = Vec::new();
    for ring in rings.iter().filter(|r| r.occupants() > 0) {
        let delta = ring.capacity();
        let epochs = (0..delta)
            .map(|e| {
                let mut p = background.clone();
                for s in 0..delta {
                    let core = ring.core_of_slot((s + e) % delta).index();
                    p[core] = ring.occupant(s).unwrap_or(idle);
                }
                p
            })
            .collect();
        seqs.push(EpochPowerSequence::new(tau, epochs).expect("valid"));
    }
    if seqs.is_empty() {
        return pinned();
    }
    seqs
}

/// The probe's peak from [`explicit_probe_sequences`]: the rotating
/// sequences as one [`RotationPeakSolver::peak_celsius_many`] batch, a
/// single epoch through [`RotationPeakSolver::peak_celsius`].
pub fn explicit_probe_peak(
    solver: &RotationPeakSolver,
    rings: &[RingRotation<f64>],
    idle: f64,
    tau: f64,
    rotating: bool,
) -> f64 {
    let cores = solver.model().core_count();
    let seqs = explicit_probe_sequences(cores, rings, idle, tau, rotating);
    let peaks = if rotating && rings.iter().any(|r| r.occupants() > 0) {
        solver.peak_celsius_many(&seqs).expect("explicit batch")
    } else {
        vec![solver.peak_celsius(&seqs[0]).expect("explicit epoch")]
    };
    peaks.into_iter().fold(f64::NEG_INFINITY, f64::max)
}
