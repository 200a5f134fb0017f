use std::sync::{Arc, OnceLock};

use hp_floorplan::{CoreId, GridFloorplan};
use hp_linalg::convert::usize_to_f64;
use hp_linalg::eigen::SystemEigen;
use hp_linalg::{CholeskyDecomposition, LuDecomposition, Matrix, NumericalError, Vector};

use crate::{ModalBasis, Result, ThermalConfig, ThermalError};

/// Conditioning estimate above which solvers stop trusting the eigen
/// fast path and arm the dense backward-Euler fallback
/// ([`crate::DenseStepper`]). Compared against the system stiffness
/// `cond₁(B) · max(A)/min(A)` (an upper-bound proxy for the eigenvalue
/// spread of `A⁻¹B`) by [`RcThermalModel::validate`], and against the
/// eigenvalue spread itself by the solvers. The default model sits
/// around 5e5; the chaos profile ([`ThermalConfig::ill_conditioned`])
/// around 5e15.
pub const CONDITION_FALLBACK_THRESHOLD: f64 = 1e12;

/// Construction-time health report of an RC model
/// ([`RcThermalModel::validate`]): the conditioning facts a run report
/// records so a degraded-numerics verdict can be traced back to its
/// cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelHealth {
    /// 1-norm condition estimate of `B` (Hager, from the cached LU).
    pub condition_estimate: f64,
    /// Capacitance spread `max(A)/min(A)`.
    pub capacitance_ratio: f64,
    /// `condition_estimate × capacitance_ratio` — the stiffness proxy
    /// compared against [`CONDITION_FALLBACK_THRESHOLD`].
    pub stiffness: f64,
    /// Fastest per-node time constant `min(A_ii / B_ii)`, seconds.
    pub min_time_constant: f64,
    /// Slowest per-node time constant `max(A_ii / B_ii)`, seconds.
    pub max_time_constant: f64,
    /// Whether the stiffness proxy exceeds the fallback threshold —
    /// solvers on this model will run (or arm) the dense fallback.
    pub ill_conditioned: bool,
}

/// The three layers of the vertical stack above each core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Active silicon — where power dissipates and temperature is constrained.
    Junction,
    /// Heat-spreader patch.
    Spreader,
    /// Heat-sink patch (connects to ambient).
    Sink,
}

/// HotSpot-style compact RC thermal network of a grid many-core
/// (paper Eq. 1: `A·T' + B·T = P + T_amb·G`).
///
/// The first `n` thermal nodes are the core junctions (in [`CoreId`] order),
/// followed by `n` spreader patches and `n` sink patches. `B` is assembled
/// as a weighted graph Laplacian plus the ambient leak diagonal, so it is
/// symmetric positive definite by construction — the property the paper's
/// Eq. (8)–(9) closed forms rely on.
///
/// The model owns its [`ModalBasis`] (see [`basis`](RcThermalModel::basis)):
/// cloning a model is how a chip's solvers share one eigendecomposition.
///
/// # Example
///
/// ```
/// use hp_floorplan::{CoreId, GridFloorplan};
/// use hp_thermal::{RcThermalModel, ThermalConfig};
/// use hp_linalg::Vector;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fp = GridFloorplan::new(4, 4)?;
/// let model = RcThermalModel::new(&fp, &ThermalConfig::default())?;
/// let mut power = Vector::constant(16, 0.3);
/// power[5] = 7.0; // one hot core
/// let t = model.steady_state(&power)?;
/// // The hot core is the hottest junction on the chip.
/// assert_eq!(model.core_temperatures(&t).argmax(), Some(5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RcThermalModel {
    cores: usize,
    /// Spreader/sink patches (= floorplan positions; equals `cores` for a
    /// planar chip, `cores / dies` for a stacked one).
    patches: usize,
    nodes: usize,
    config: ThermalConfig,
    a_diag: Vector,
    b: Matrix,
    g: Vector,
    /// The LU factorization of `B`, solved by the steady state, the
    /// health screen and `R_J`'s one-time build, never on a hook path.
    b_lu: LuDecomposition,
    /// Cached ambient response `B⁻¹·G·T_amb` (temperature with zero power).
    ambient_response: Vector,
    /// The modal basis, built by the first [`basis`](RcThermalModel::basis)
    /// call. The cell itself sits behind the `Arc`, so clones taken before
    /// that call share it too.
    basis: Arc<OnceLock<Arc<ModalBasis>>>,
    /// `R_J`, built by the first
    /// [`junction_influence`](RcThermalModel::junction_influence) call and
    /// shared with every clone as the basis is.
    junction: Arc<OnceLock<Matrix>>,
}

impl RcThermalModel {
    /// Builds the RC network for `floorplan` with the given `config`.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidParameter`] for non-physical configuration.
    /// * [`ThermalError::Linalg`] if factorization of `B` fails (cannot
    ///   happen for valid parameters).
    pub fn new(floorplan: &GridFloorplan, config: &ThermalConfig) -> Result<Self> {
        config.validate()?;
        let n = floorplan.core_count();
        let nodes = 3 * n;

        let mut a_diag = Vector::zeros(nodes);
        for i in 0..n {
            a_diag[i] = config.c_junction;
            a_diag[n + i] = config.c_spreader;
            a_diag[2 * n + i] = config.c_sink;
        }

        let mut b = Matrix::zeros(nodes, nodes);
        let mut g = Vector::zeros(nodes);

        let mut couple = |i: usize, j: usize, cond: f64| {
            b[(i, j)] -= cond;
            b[(j, i)] -= cond;
            b[(i, i)] += cond;
            b[(j, j)] += cond;
        };

        for core in floorplan.cores() {
            let i = core.index();
            let missing = 4 - floorplan.neighbors(core)?.len();
            // Vertical stack; edge spreader patches also reach peripheral
            // sink area beyond the die outline.
            couple(i, n + i, config.g_junction_spreader);
            couple(
                n + i,
                2 * n + i,
                config.g_spreader_sink + usize_to_f64(missing) * config.g_spreader_edge,
            );
            // Lateral coupling; add each undirected edge once.
            for nb in floorplan.neighbors(core)? {
                let j = nb.index();
                if j > i {
                    couple(i, j, config.g_lateral_junction);
                    couple(n + i, n + j, config.g_lateral_spreader);
                    couple(2 * n + i, 2 * n + j, config.g_lateral_sink);
                }
            }
        }
        // Ambient leak from sink patches (adds to the diagonal of B).
        // Edge and corner patches gain peripheral fin area in proportion to
        // their missing neighbours — this is what makes the die centre
        // thermally constrained (paper Fig. 3).
        for core in floorplan.cores() {
            let i = core.index();
            let node = 2 * n + i;
            let missing = 4 - floorplan.neighbors(core)?.len();
            let leak = config.g_sink_ambient + usize_to_f64(missing) * config.g_sink_edge;
            b[(node, node)] += leak;
            g[node] = leak;
        }

        RcThermalModel::from_parts(n, n, *config, a_diag, b, g)
    }

    /// Assembles a model from raw matrices — the escape hatch used by
    /// non-planar builders such as [`crate::stacked::stacked_model`].
    ///
    /// `cores` power-dissipating junction nodes must come first in the
    /// node ordering, followed by `patches` spreader nodes and `patches`
    /// sink nodes.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerLengthMismatch`] if the matrix dimensions
    ///   disagree with `cores + 2 × patches`.
    /// * Factorization errors for a singular `B`.
    pub fn from_parts(
        cores: usize,
        patches: usize,
        config: ThermalConfig,
        a_diag: Vector,
        b: Matrix,
        g: Vector,
    ) -> Result<Self> {
        let nodes = cores + 2 * patches;
        if a_diag.len() != nodes || b.rows() != nodes || b.cols() != nodes || g.len() != nodes {
            return Err(ThermalError::PowerLengthMismatch {
                expected: nodes,
                got: a_diag.len(),
            });
        }
        let b_lu = b.lu()?;
        let ambient_response = b_lu.solve(&g.scaled(config.ambient))?;
        Ok(RcThermalModel {
            cores,
            patches,
            nodes,
            config,
            a_diag,
            b,
            g,
            b_lu,
            ambient_response,
            basis: Arc::default(),
            junction: Arc::default(),
        })
    }

    /// Number of cores `n`.
    pub fn core_count(&self) -> usize {
        self.cores
    }

    /// Number of thermal nodes `N = 3n`.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Diagonal of the capacitance matrix `A`.
    pub fn a_diag(&self) -> &Vector {
        &self.a_diag
    }

    /// The conductance matrix `B` (symmetric positive definite).
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The conductance-to-ambient column `G`.
    pub fn g(&self) -> &Vector {
        &self.g
    }

    /// The ambient response `B⁻¹·G·T_amb`: node temperatures with zero power.
    pub fn ambient_response(&self) -> &Vector {
        &self.ambient_response
    }

    /// The model's modal basis: the eigendecomposition of `C = −A⁻¹B`
    /// and the operators both modal solvers step with.
    ///
    /// The first call decomposes (the design-time phase); every later
    /// call, on this model or on any clone of it, returns the same basis,
    /// so all solvers of a chip step in one basis. Threads racing on an
    /// unbuilt basis may each decompose; all get the first one stored.
    ///
    /// # Errors
    ///
    /// Propagates eigendecomposition failures as [`ThermalError::Linalg`];
    /// the next call then retries.
    pub fn basis(&self) -> Result<&Arc<ModalBasis>> {
        if let Some(basis) = self.basis.get() {
            return Ok(basis);
        }
        let eigen = SystemEigen::new(&self.a_diag, &self.b)?;
        let basis = Arc::new(ModalBasis::new(self, eigen)?);
        Ok(self.basis.get_or_init(|| basis))
    }

    /// The junction-influence block `R_J`, °C/W, row-major: entry
    /// `(i, j)` is junction `i`'s steady rise per W dissipated at junction
    /// `j`. It is the `cores × cores` junction block of `B⁻¹`, the thermal
    /// resistance matrix TSP (paper \[14\]) budgets with: with power `p`
    /// (W) on the junctions, the steady junction temperatures are the
    /// junction rows of [`ambient_response`](Self::ambient_response) plus
    /// `R_J·p`.
    ///
    /// The first call builds it from the LU factorization of `B`, one
    /// solve per core (about 2 ms on the 8×8 chip), never from the modal
    /// basis: TSP is the fallback chain's safe mode when an Algorithm-1
    /// evaluation fails (DESIGN.md §8), so it must not depend on the
    /// eigendecomposition. Every later call, on this model or on any clone
    /// of it, returns the same block. Threads racing on an unbuilt block
    /// may each build it; all get the first one stored.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`ThermalError::Linalg`]; the next
    /// call then retries.
    pub fn junction_influence(&self) -> Result<&Matrix> {
        if let Some(influence) = self.junction.get() {
            return Ok(influence);
        }
        let n = self.cores;
        let mut influence = Matrix::zeros(n, n);
        let mut unit = Vector::zeros(self.nodes);
        for j in 0..n {
            unit[j] = 1.0;
            let column = self.b_lu.solve(&unit)?;
            unit[j] = 0.0;
            for i in 0..n {
                influence[(i, j)] = column[i];
            }
        }
        Ok(self.junction.get_or_init(|| influence))
    }

    /// Thermal node index of `core` in `layer`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Floorplan`] for out-of-range core ids.
    pub fn node(&self, core: CoreId, layer: Layer) -> Result<usize> {
        if core.index() >= self.cores {
            return Err(ThermalError::Floorplan(
                hp_floorplan::FloorplanError::CoreOutOfRange {
                    core: core.index(),
                    cores: self.cores,
                },
            ));
        }
        Ok(match layer {
            Layer::Junction => core.index(),
            Layer::Spreader => self.cores + core.index() % self.patches,
            Layer::Sink => self.cores + self.patches + core.index() % self.patches,
        })
    }

    /// Expands a per-core power vector in W (length `n`, junction
    /// dissipation) into a full node power vector (length `N`, zeros
    /// elsewhere).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] if `core_power` has the
    /// wrong length.
    pub fn expand_power(&self, core_power: &Vector) -> Result<Vector> {
        if core_power.len() != self.cores {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.cores,
                got: core_power.len(),
            });
        }
        let mut p = Vector::zeros(self.nodes);
        for i in 0..self.cores {
            p[i] = core_power[i];
        }
        Ok(p)
    }

    /// Extracts the junction (core) temperatures, °C, from a full node
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `node_temps.len() != self.node_count()`.
    pub fn core_temperatures(&self, node_temps: &Vector) -> Vector {
        assert_eq!(node_temps.len(), self.nodes, "node state length mismatch");
        Vector::from_fn(self.cores, |i| node_temps[i])
    }

    /// Steady-state node temperatures for a per-core power map
    /// (paper Eq. 3: `T_steady = B⁻¹·P + B⁻¹·T_amb·G`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] for wrong-length input
    /// or a propagated solver error.
    pub fn steady_state(&self, core_power: &Vector) -> Result<Vector> {
        let p = self.expand_power(core_power)?;
        let power_response = self.b_lu.solve(&p)?;
        Ok(&power_response + &self.ambient_response)
    }

    /// The node state with every node at ambient temperature — the natural
    /// initial condition (paper §IV shifts the origin to exactly this state).
    pub fn ambient_state(&self) -> Vector {
        Vector::constant(self.nodes, self.config.ambient)
    }

    /// The constant node forcing `P_nodes + T_amb·G` of the thermal ODE
    /// `A·T' + B·T = P + T_amb·G` for a per-core power map — the
    /// right-hand side the dense fallback stepper
    /// ([`crate::DenseStepper`]) integrates against.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerLengthMismatch`] for wrong-length
    /// input.
    pub fn forcing(&self, core_power: &Vector) -> Result<Vector> {
        let p = self.expand_power(core_power)?;
        Ok(Vector::from_fn(self.nodes, |i| {
            p[i] + self.config.ambient * self.g[i]
        }))
    }

    /// Construction-time numerical-integrity audit (DESIGN.md §14).
    ///
    /// Checks the facts every downstream solver silently assumes:
    ///
    /// * all entries of `A`, `B`, `G` are finite; `A` strictly positive;
    /// * `B` is symmetric positive definite (Cholesky must succeed);
    /// * every per-node time constant `A_ii/B_ii` is finite and positive;
    /// * the stiffness proxy `cond₁(B) · max(A)/min(A)` is computed and
    ///   compared against [`CONDITION_FALLBACK_THRESHOLD`].
    ///
    /// An ill-conditioned model is *not* an error — solvers degrade to
    /// the dense fallback for it — so the verdict comes back inside
    /// [`ModelHealth`]; only structurally broken models (non-finite
    /// entries, non-SPD `B`) fail.
    ///
    /// # Errors
    ///
    /// * [`NumericalError::NonFinite`] (via [`ThermalError::Linalg`]) for
    ///   non-finite matrix entries.
    /// * [`ThermalError::Linalg`] if `B` fails its SPD (Cholesky) check.
    pub fn validate(&self) -> Result<ModelHealth> {
        if self.a_diag.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(ThermalError::Linalg(
                NumericalError::NonFinite {
                    what: "capacitance diagonal A",
                }
                .into(),
            ));
        }
        if self.b.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(ThermalError::Linalg(
                NumericalError::NonFinite {
                    what: "conductance matrix B",
                }
                .into(),
            ));
        }
        if self.g.iter().any(|v| !v.is_finite()) {
            return Err(ThermalError::Linalg(
                NumericalError::NonFinite {
                    what: "ambient column G",
                }
                .into(),
            ));
        }
        // SPD check: Cholesky fails on asymmetric or indefinite B.
        CholeskyDecomposition::new(&self.b)?;

        let condition_estimate = self.b_lu.condition_estimate()?;
        let mut a_min = f64::INFINITY;
        let mut a_max = 0.0f64;
        for &a in &self.a_diag {
            a_min = a_min.min(a);
            a_max = a_max.max(a);
        }
        let capacitance_ratio = a_max / a_min;
        let stiffness = condition_estimate * capacitance_ratio;

        let mut min_tau = f64::INFINITY;
        let mut max_tau = 0.0f64;
        for i in 0..self.nodes {
            let tau = self.a_diag[i] / self.b[(i, i)];
            if !(tau.is_finite() && tau > 0.0) {
                return Err(ThermalError::InvalidParameter {
                    name: "node time constant",
                    value: tau,
                });
            }
            min_tau = min_tau.min(tau);
            max_tau = max_tau.max(tau);
        }

        Ok(ModelHealth {
            condition_estimate,
            capacitance_ratio,
            stiffness,
            min_time_constant: min_tau,
            max_time_constant: max_tau,
            ill_conditioned: stiffness >= CONDITION_FALLBACK_THRESHOLD,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_4x4() -> RcThermalModel {
        let fp = GridFloorplan::new(4, 4).unwrap();
        RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap()
    }

    #[test]
    fn b_is_symmetric_positive_definite() {
        let m = model_4x4();
        assert!(m.b().is_symmetric(1e-12));
        // All eigenvalues positive <=> SPD.
        let eig = m.b().symmetric_eigen().unwrap();
        assert!(eig.eigenvalues().iter().all(|&l| l > 0.0));
    }

    #[test]
    fn zero_power_settles_at_ambient() {
        let m = model_4x4();
        let t = m.steady_state(&Vector::zeros(16)).unwrap();
        for &ti in &t {
            assert!((ti - 45.0).abs() < 1e-8, "node at {ti}");
        }
    }

    #[test]
    fn hot_core_is_hottest_and_above_threshold() {
        let m = model_4x4();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let t = m.steady_state(&p).unwrap();
        let cores = m.core_temperatures(&t);
        assert_eq!(cores.argmax(), Some(5));
        // A pinned compute-bound thread must overshoot the 70 C threshold
        // (Fig. 2(a) shows ~80 C).
        assert!(cores.max() > 72.0, "hot core at {:.1}", cores.max());
        assert!(cores.max() < 95.0, "hot core too hot: {:.1}", cores.max());
    }

    #[test]
    fn fig2a_two_center_cores_reach_about_80c() {
        let m = model_4x4();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        p[10] = 7.0;
        let t = m.steady_state(&p).unwrap();
        let peak = m.core_temperatures(&t).max();
        assert!(peak > 74.0 && peak < 90.0, "peak {peak:.1}");
    }

    #[test]
    fn rotation_average_power_is_thermally_safe() {
        // Averaging 2x7 W over the 4 centre cores (plus idle power) must
        // land below the 70 C threshold — the premise of Fig. 2(c).
        let m = model_4x4();
        let mut p = Vector::constant(16, 0.3);
        let avg = (2.0 * 7.0 + 2.0 * 0.3) / 4.0;
        for c in [5usize, 6, 9, 10] {
            p[c] = avg;
        }
        let t = m.steady_state(&p).unwrap();
        let peak = m.core_temperatures(&t).max();
        assert!(peak < 70.0, "averaged peak {peak:.1}");
        assert!(peak > 55.0, "averaged peak implausibly cool: {peak:.1}");
    }

    #[test]
    fn temperature_monotone_in_power() {
        let m = model_4x4();
        let p1 = Vector::constant(16, 1.0);
        let p2 = Vector::constant(16, 2.0);
        let t1 = m.steady_state(&p1).unwrap();
        let t2 = m.steady_state(&p2).unwrap();
        for i in 0..m.node_count() {
            assert!(t2[i] > t1[i]);
        }
    }

    #[test]
    fn superposition_holds() {
        // The model is affine in P: T(P1 + P2) - T(0) == (T(P1)-T(0)) + (T(P2)-T(0)).
        let m = model_4x4();
        let mut p1 = Vector::zeros(16);
        p1[3] = 4.0;
        let mut p2 = Vector::zeros(16);
        p2[12] = 2.5;
        let t0 = m.steady_state(&Vector::zeros(16)).unwrap();
        let t1 = m.steady_state(&p1).unwrap();
        let t2 = m.steady_state(&p2).unwrap();
        let t12 = m.steady_state(&(&p1 + &p2)).unwrap();
        let lhs = &t12 - &t0;
        let rhs = &(&t1 - &t0) + &(&t2 - &t0);
        assert!((&lhs - &rhs).norm_inf() < 1e-9);
    }

    #[test]
    fn node_indexing() {
        let m = model_4x4();
        assert_eq!(m.node(CoreId(5), Layer::Junction).unwrap(), 5);
        assert_eq!(m.node(CoreId(5), Layer::Spreader).unwrap(), 21);
        assert_eq!(m.node(CoreId(5), Layer::Sink).unwrap(), 37);
        assert!(m.node(CoreId(16), Layer::Junction).is_err());
    }

    #[test]
    fn expand_power_rejects_wrong_length() {
        let m = model_4x4();
        assert!(matches!(
            m.expand_power(&Vector::zeros(8)),
            Err(ThermalError::PowerLengthMismatch { .. })
        ));
    }

    #[test]
    fn forcing_combines_power_and_ambient_leak() {
        let m = model_4x4();
        let mut p = Vector::zeros(16);
        p[3] = 4.0;
        let f = m.forcing(&p).unwrap();
        // Junction node 3 carries its power; sink nodes carry the leak.
        assert_eq!(f[3], 4.0);
        assert_eq!(f[4], 0.0);
        for i in 0..16 {
            let sink = 32 + i;
            assert!((f[sink] - 45.0 * m.g()[sink]).abs() < 1e-12);
        }
        assert!(m.forcing(&Vector::zeros(7)).is_err());
    }

    #[test]
    fn validate_healthy_model() {
        let m = model_4x4();
        let health = m.validate().unwrap();
        assert!(!health.ill_conditioned, "stiffness {:e}", health.stiffness);
        assert!(health.condition_estimate > 1.0);
        assert!(health.capacitance_ratio > 100.0 && health.capacitance_ratio < 1e4);
        assert!(health.min_time_constant > 0.0);
        assert!(health.max_time_constant > health.min_time_constant);
    }

    #[test]
    fn validate_flags_ill_conditioned_profile() {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let m = RcThermalModel::new(&fp, &ThermalConfig::ill_conditioned()).unwrap();
        let health = m.validate().unwrap();
        assert!(health.ill_conditioned, "stiffness {:e}", health.stiffness);
        assert!(health.stiffness >= CONDITION_FALLBACK_THRESHOLD);
    }

    #[test]
    fn validate_rejects_nonfinite_matrix() {
        let m = model_4x4();
        // A NaN in B fails factorization inside from_parts already; go
        // through a broken G instead, which only validate() inspects.
        let mut g = m.g().clone();
        g[0] = f64::INFINITY;
        let broken =
            RcThermalModel::from_parts(16, 16, *m.config(), m.a_diag().clone(), m.b().clone(), g)
                .unwrap();
        assert!(matches!(
            broken.validate(),
            Err(ThermalError::Linalg(hp_linalg::LinalgError::Numerical(_)))
        ));
    }

    #[test]
    fn clones_share_one_basis_even_when_taken_before_it_is_built() {
        let m = model_4x4();
        let early = m.clone();
        let basis = m.basis().unwrap();
        assert!(std::ptr::eq(&**basis, &**early.basis().unwrap()));
        assert!(std::ptr::eq(&**basis, &**m.clone().basis().unwrap()));
        // Another model decomposes on its own, into the same bits.
        let other = model_4x4();
        let theirs = other.basis().unwrap();
        assert!(!std::ptr::eq(&**basis, &**theirs));
        assert_eq!(basis.fingerprint(), theirs.fingerprint());
    }

    #[test]
    fn junction_influence_columns_are_steady_responses_to_one_watt() {
        for (w, h) in [(4, 4), (8, 8)] {
            let m = RcThermalModel::new(
                &GridFloorplan::new(w, h).unwrap(),
                &ThermalConfig::default(),
            )
            .unwrap();
            let influence = m.junction_influence().unwrap();
            let n = w * h;
            for j in 0..n {
                let mut unit = Vector::zeros(n);
                unit[j] = 1.0;
                let rise = &m.steady_state(&unit).unwrap() - m.ambient_response();
                for i in 0..n {
                    let got = influence[(i, j)];
                    assert!(
                        (got - rise[i]).abs() <= 1e-12,
                        "R_J[{i}][{j}] = {got} vs {}",
                        rise[i]
                    );
                }
            }
        }
    }

    #[test]
    fn clones_share_one_junction_influence_built_without_the_basis() {
        let m = model_4x4();
        let early = m.clone();
        let influence = m.junction_influence().unwrap();
        assert!(std::ptr::eq(influence, early.junction_influence().unwrap()));
        assert!(std::ptr::eq(
            influence,
            m.clone().junction_influence().unwrap()
        ));
        // The fallback chain's TSP rung must not depend on the basis.
        assert!(m.basis.get().is_none());
    }

    #[test]
    fn junction_hotter_than_spreader_hotter_than_sink() {
        let m = model_4x4();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 6.0;
        let t = m.steady_state(&p).unwrap();
        let j = t[m.node(CoreId(5), Layer::Junction).unwrap()];
        let s = t[m.node(CoreId(5), Layer::Spreader).unwrap()];
        let k = t[m.node(CoreId(5), Layer::Sink).unwrap()];
        assert!(j > s && s > k && k > 45.0);
    }
}
