//! **Extension (paper §VII future work):** synchronous task rotation on a
//! 3D-stacked S-NUCA chip.
//!
//! Two active dies share one heat-removal path, so the buried die runs
//! structurally hotter. The rotation analytics (Algorithm 1) apply
//! unchanged to the stacked RC model; this binary quantifies how much an
//! *inter-die* rotation — alternating a hot thread between the buried and
//! the top die — buys over pinning it on either die, and compares planar
//! vs vertical rotation rings.

use hotpotato::{EpochPowerSequence, RotationPeakSolver};
use hp_experiments::pct;
use hp_floorplan::GridFloorplan;
use hp_linalg::Vector;
use hp_power::IDLE_WATTS;
use hp_thermal::{stacked::stacked_model, ThermalConfig};

fn main() {
    let fp = GridFloorplan::new(4, 4).expect("grid");
    let n = fp.core_count();
    let dies = 2;
    let model = stacked_model(&fp, &ThermalConfig::default(), dies, 0.8).expect("builds");
    let cores = model.core_count();
    let solver = RotationPeakSolver::new(model).expect("decomposes");
    let watts = 6.0;
    let tau = 0.5e-3;

    let pinned = |core: usize| {
        let mut p = Vector::constant(cores, IDLE_WATTS);
        p[core] = watts;
        EpochPowerSequence::new(tau, vec![p]).expect("valid")
    };

    // Inter-die rotation: the thread alternates between the buried core 5
    // and the top-die core directly above it (5 + n).
    let interdie = {
        let epochs = (0..2)
            .map(|e| {
                let mut p = Vector::constant(cores, IDLE_WATTS);
                p[if e == 0 { 5 } else { 5 + n }] = watts;
                p
            })
            .collect();
        EpochPowerSequence::new(tau, epochs).expect("valid")
    };

    // Planar rotation on the buried die's centre ring {5, 6, 10, 9}.
    let planar = {
        let ring = [5usize, 6, 10, 9];
        let epochs = (0..4)
            .map(|e| {
                let mut p = Vector::constant(cores, IDLE_WATTS);
                p[ring[e % 4]] = watts;
                p
            })
            .collect();
        EpochPowerSequence::new(tau, epochs).expect("valid")
    };

    // Combined: rotate over the centre rings of BOTH dies (8 positions).
    let combined = {
        let ring = [5usize, 6, 10, 9, 5 + n, 6 + n, 10 + n, 9 + n];
        let epochs = (0..8)
            .map(|e| {
                let mut p = Vector::constant(cores, IDLE_WATTS);
                p[ring[e % 8]] = watts;
                p
            })
            .collect();
        EpochPowerSequence::new(tau, epochs).expect("valid")
    };

    let p_buried = solver.peak_celsius(&pinned(5)).expect("computes");
    let p_top = solver.peak_celsius(&pinned(5 + n)).expect("computes");
    let p_inter = solver.peak_celsius(&interdie).expect("computes");
    let p_planar = solver.peak_celsius(&planar).expect("computes");
    let p_comb = solver.peak_celsius(&combined).expect("computes");

    println!("3D-stacked 4x4x2 S-NUCA chip, one {watts} W thread, tau = 0.5 ms");
    println!("{:<38} {:>8}", "schedule", "peak C");
    for (label, v) in [
        ("pinned on buried die (core 5)", p_buried),
        ("pinned on top die (core 21)", p_top),
        ("inter-die rotation (2 positions)", p_inter),
        ("planar rotation, buried ring (4)", p_planar),
        ("combined 2-die ring rotation (8)", p_comb),
    ] {
        println!("{label:<38} {v:>8.1}");
        println!("csv,stacked3d,{},{:.2}", label.replace(',', ";"), v);
    }
    println!();
    println!(
        "vertical heterogeneity (buried - top, pinned): {:.1} C",
        p_buried - p_top
    );
    println!(
        "inter-die rotation vs pinned-buried: {} of the excess over ambient",
        pct((p_buried - p_inter) / (p_buried - 45.0))
    );
    println!(
        "combined ring vs best pinned: {:.1} C cooler",
        p_top.min(p_buried) - p_comb
    );
}
