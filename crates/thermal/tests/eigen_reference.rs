//! Differential test of the Householder + QL eigensolver against the
//! cyclic-Jacobi reference, on the symmetrized system `S = A^{-1/2}BA^{-1/2}`
//! of the chips the tool-chain actually builds: the 4×4 and 8×8 grids,
//! the two-die stacked model and the ill-conditioned profile.
//!
//! The contract, per chip:
//!
//! * backward error `‖S − QΛQᵀ‖∞ ≤ 1e-12·‖S‖∞` and `‖QᵀQ − I‖∞ ≤ 1e-12`;
//! * every eigenvalue within `1e-12·‖S‖∞` of Jacobi's. The bound is
//!   norm-relative on purpose: on the ill-conditioned profile QL's error
//!   scales with `‖S‖`, while Jacobi keeps the smallest eigenvalues
//!   relatively accurate, so a per-eigenvalue relative bound would fail
//!   on an error both solvers are entitled to;
//! * the same `ModalBasis::armed` verdict, so no chip changes between
//!   the eigen path and the dense fallback.
//!
//! The 16×16 chip (`N = 768`) checks the contract without the reference,
//! which needs ~50 s there: run it with
//! `cargo test --release -p hp-thermal --test eigen_reference -- --ignored`.

#[path = "../../linalg/tests/support/mod.rs"]
mod support;

use hp_floorplan::GridFloorplan;
use hp_linalg::{Matrix, SymmetricEigen};
use hp_thermal::stacked::stacked_model;
use hp_thermal::{RcThermalModel, ThermalConfig};
use support::{jacobi_eigen, orthogonality_error, reconstruction_error};

const CONTRACT: f64 = 1e-12;

fn grid(width: usize, height: usize, config: &ThermalConfig) -> RcThermalModel {
    let fp = GridFloorplan::new(width, height).expect("grid");
    RcThermalModel::new(&fp, config).expect("model builds")
}

/// `S = A^{-1/2}·B·A^{-1/2}`, symmetrized as `SystemEigen::new` does.
fn symmetrized(model: &RcThermalModel) -> Matrix {
    let a = model.a_diag();
    let b = model.b();
    let n = a.len();
    let s = Matrix::from_fn(n, n, |i, j| b[(i, j)] / (a[i].sqrt() * a[j].sqrt()));
    Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]))
}

/// Asserts the backward-error and orthogonality contract on `model`'s
/// `S`; returns `S` and its decomposition.
fn check_contract(name: &str, model: &RcThermalModel) -> (Matrix, SymmetricEigen) {
    let s = symmetrized(model);
    let eig = s.symmetric_eigen().expect("decomposes");
    let rec = reconstruction_error(&s, eig.eigenvalues(), eig.eigenvectors());
    let orth = orthogonality_error(eig.eigenvectors());
    assert!(rec <= CONTRACT, "{name}: ‖S − QΛQᵀ‖∞/‖S‖∞ = {rec:e}");
    assert!(orth <= CONTRACT, "{name}: ‖QᵀQ − I‖∞ = {orth:e}");
    (s, eig)
}

/// The contract plus the differential against Jacobi, and the arming
/// verdict a Jacobi-built basis would reach.
fn check_against_reference(name: &str, model: &RcThermalModel, armed: bool) {
    let (s, eig) = check_contract(name, model);
    let (values, vectors) = jacobi_eigen(&s).expect("reference converges");
    let worst = (eig.eigenvalues() - &values).norm_inf();
    assert!(
        worst <= CONTRACT * s.norm_inf(),
        "{name}: max |λ_ql − λ_jacobi| = {worst:e}, ‖S‖∞ = {:e}",
        s.norm_inf()
    );
    // The reference's own backward error, for scale: QL is expected to
    // be at least as accurate.
    let reference_rec = reconstruction_error(&s, &values, &vectors);
    assert!(
        reference_rec <= CONTRACT,
        "{name}: Jacobi {reference_rec:e}"
    );

    let basis = model.basis().expect("basis builds");
    assert_eq!(basis.armed(), armed, "{name}: arming verdict");
}

#[test]
fn grid_4x4_matches_the_reference() {
    check_against_reference("4x4", &grid(4, 4, &ThermalConfig::default()), false);
}

#[test]
fn grid_8x8_matches_the_reference() {
    // The paper's chip. Its x/y mirror symmetry gives repeated
    // eigenvalues, QL's corner case.
    check_against_reference("8x8", &grid(8, 8, &ThermalConfig::default()), false);
}

#[test]
fn stacked_two_die_model_matches_the_reference() {
    let fp = GridFloorplan::new(4, 4).expect("grid");
    let model = stacked_model(&fp, &ThermalConfig::default(), 2, 0.8).expect("builds");
    check_against_reference("stacked 4x4x2", &model, false);
}

#[test]
fn ill_conditioned_profile_matches_the_reference() {
    // Stiff enough to arm the dense fallback, under either solver.
    check_against_reference(
        "ill-conditioned 4x4",
        &grid(4, 4, &ThermalConfig::ill_conditioned()),
        true,
    );
}

#[test]
fn basis_fingerprints_are_pinned() {
    // FNV-1a over the bits of λ, V and y_amb. Every checkpoint's spec hash
    // folds it in, so a changed bit anywhere in the design-time phase would
    // turn every older checkpoint into a spec mismatch.
    let (default, stiff) = (ThermalConfig::default(), ThermalConfig::ill_conditioned());
    let pins = [
        ("4x4", grid(4, 4, &default), 0x5a05_3655_9781_3246u64),
        (
            "ill-conditioned 4x4",
            grid(4, 4, &stiff),
            0x33e3_e845_6c9d_865a,
        ),
        ("8x8", grid(8, 8, &default), 0x2886_4c55_7954_2362),
        (
            "ill-conditioned 8x8",
            grid(8, 8, &stiff),
            0xe195_8699_cf92_7e27,
        ),
    ];
    for (name, model, want) in pins {
        let basis = model.basis().expect("basis builds");
        assert_eq!(basis.fingerprint(), want, "{name}");
    }
}

#[test]
#[ignore = "N = 768: run in release with --ignored"]
fn grid_16x16_keeps_the_contract() {
    let model = grid(16, 16, &ThermalConfig::default());
    assert_eq!(model.node_count(), 768);
    check_contract("16x16", &model);
}
