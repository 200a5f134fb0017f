//! The inputs the design-time kernels are held to their scalar
//! references on: the RC networks of every chip the tool-chain builds,
//! and small matrices that reach the solvers' corner cases.
//!
//! The chips come from `hp_thermal` as plain `f64` slices, so this file
//! builds the same matrices wherever it is included.

use hp_floorplan::GridFloorplan;
use hp_linalg::{Matrix, Vector};
use hp_thermal::stacked::stacked_model;
use hp_thermal::{RcThermalModel, ThermalConfig};

/// One chip's RC network: its capacitances `A` (diagonal) and
/// conductances `B`.
pub struct Chip {
    pub name: &'static str,
    pub a_diag: Vector,
    pub b: Matrix,
}

impl Chip {
    /// `S = A^{-1/2}·B·A^{-1/2}`, symmetrized as `SystemEigen::new` does:
    /// the matrix the symmetric eigensolver decomposes.
    pub fn s(&self) -> Matrix {
        let (a, b, n) = (&self.a_diag, &self.b, self.a_diag.len());
        let s = Matrix::from_fn(n, n, |i, j| {
            1.0 / a[i].sqrt() * b[(i, j)] * (1.0 / a[j].sqrt())
        });
        Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]))
    }
}

/// The 4×4, 6×6, 8×8 and 10×10 chips (`N` = 48 to 300), the two-die
/// stacked 4×4 and the ill-conditioned 4×4 profile.
pub fn chips() -> Vec<Chip> {
    let grid = |w, h| GridFloorplan::new(w, h).expect("grid");
    let default = ThermalConfig::default();
    let models = [
        ("4x4", RcThermalModel::new(&grid(4, 4), &default)),
        ("6x6", RcThermalModel::new(&grid(6, 6), &default)),
        ("8x8", RcThermalModel::new(&grid(8, 8), &default)),
        ("10x10", RcThermalModel::new(&grid(10, 10), &default)),
        (
            "stacked 4x4x2",
            stacked_model(&grid(4, 4), &default, 2, 0.8),
        ),
        (
            "ill-conditioned 4x4",
            RcThermalModel::new(&grid(4, 4), &ThermalConfig::ill_conditioned()),
        ),
    ];
    models
        .into_iter()
        .map(|(name, model)| {
            let model = model.expect("model builds");
            let n = model.node_count();
            let b = model.b().as_slice();
            Chip {
                name,
                a_diag: Vector::from(model.a_diag().as_slice()),
                b: Matrix::from_fn(n, n, |i, j| b[i * n + j]),
            }
        })
        .collect()
}

/// Symmetric matrices at the eigensolver's corner cases, named: sizes 0,
/// 1 and 2, a diagonal, block-diagonal ones (whose rows are already
/// reduced, so the reduction skips their reflections), repeated
/// eigenvalues, and an input symmetric only to `1e-12`.
pub fn corner_cases() -> Vec<(&'static str, Matrix)> {
    let chain = |n: usize| {
        Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 2.0 + 0.1 * (i % 3) as f64,
            1 => -0.7,
            _ => 0.0,
        })
    };
    let c = chain(5);
    let two_blocks = Matrix::from_fn(10, 10, |i, j| {
        if i / 5 == j / 5 {
            c[(i % 5, j % 5)]
        } else {
            0.0
        }
    });
    let split = Matrix::from_fn(9, 9, |i, j| match (i < 4, j < 4) {
        (true, true) => c[(i, j)],
        (false, false) => c[(i - 4, j - 4)] * 1.5,
        _ => 0.0,
    });
    let mut nudged = chain(12);
    for i in 0..12 {
        for j in 0..i {
            nudged[(j, i)] += 1e-12 * (1.0 + (i * j % 5) as f64);
        }
    }
    vec![
        ("empty", Matrix::zeros(0, 0)),
        ("1x1", Matrix::from_rows(&[&[-2.5]]).expect("square")),
        (
            "2x2",
            Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).expect("square"),
        ),
        (
            "diagonal",
            Matrix::from_diagonal(&Vector::from(vec![3.0, 1.0, 2.0, 1.0, 5.0])),
        ),
        ("scaled identity", Matrix::identity(7).scaled(0.3)),
        ("two equal blocks", two_blocks),
        ("split blocks", split),
        ("chain", chain(33)),
        ("asymmetric at 1e-12", nudged),
    ]
}

/// Square matrices for the LU: the corner cases of [`corner_cases`] that
/// factor, plus ones that need row swaps.
pub fn lu_cases() -> Vec<(&'static str, Matrix)> {
    let mut out: Vec<_> = corner_cases()
        .into_iter()
        .filter(|(name, _)| *name != "empty")
        .collect();
    out.push((
        "pivoting",
        Matrix::from_fn(17, 17, |i, j| {
            ((i * 7 + j * 3) % 11) as f64 - 5.0 + if i == j { 0.5 } else { 0.0 }
        }),
    ));
    out.push((
        "zero leading entry",
        Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[1.0, 0.0, 3.0], &[4.0, -1.0, 0.0]])
            .expect("square"),
    ));
    out
}
