//! The modal (eigen-coordinate) operators of one RC model, built once
//! and shared by every solver that steps or analyses that model.
//!
//! With `C = −A⁻¹B = V·Λ·V⁻¹` and the steady state
//! `T_ss(P) = B⁻¹P + T_amb-response`, the eigen coordinates `z = V⁻¹·T`
//! evolve mode by mode under constant power (paper Eq. 4 in the
//! eigenbasis):
//!
//! ```text
//! z ← e^{λdt}∘z + (1 − e^{λdt})∘y,    y = proj·P + y_amb,    T = V·z
//! ```
//!
//! where `proj = −Λ⁻¹·V⁻¹·A⁻¹` restricted to the junction columns maps a
//! per-core power vector straight to its eigen-space steady state — the
//! linear solve `B⁻¹P` folded into one thin matrix at design time.
//! [`ModalBasis`] holds these operators in the transposed layouts the
//! row-stacked GEMMs consume, the per-mode weights of the spreader and
//! sink rows that the transient solver's readout certificate bounds
//! with, and the construction-time trust verdict on the
//! eigendecomposition. Each model owns one, built on first use by
//! [`RcThermalModel::basis`]. Operators another layer derives from the
//! basis live in its [`cache`](ModalBasis::cache), shared the same way.

use std::any::Any;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use hp_linalg::eigen::SystemEigen;
use hp_linalg::{LinalgError, Matrix, Vector};

use crate::{RcThermalModel, Result, ThermalError, CONDITION_FALLBACK_THRESHOLD};

/// Basis residual `‖V·V⁻¹ − I‖∞` beyond which the eigendecomposition is
/// not trusted even if the eigenvalue spread looks acceptable.
const BASIS_RESIDUAL_THRESHOLD: f64 = 1e-6;

/// One model's eigendecomposition together with the derived operators
/// of the modal step and of Algorithm 1.
///
/// Every operator is stored transposed so a batch of states, power maps
/// or boundary states — one contiguous row each — maps through a single
/// [`Matrix::mul_matrix`] whose inner products run in ascending index
/// order, the order of the serial mat-vec forms. Construction costs the
/// `O(N·cores)` Algorithm-1 operators and the `O(N³)` trust check on top
/// of the eigendecomposition itself; the two `N × N` transposes and the
/// readout weights only the transient solver reads are built on first
/// use, so a basis serving Algorithm 1 alone never holds them.
/// [`RcThermalModel::basis`] builds it once per model and hands the same
/// instance to every solver of that model and of its clones.
#[derive(Debug)]
pub struct ModalBasis {
    eigen: SystemEigen,
    cores: usize,
    /// `Vᵀ` (`N × N`): modal-to-node readout of row-stacked states.
    v_t: OnceLock<Matrix>,
    /// `V⁻¹ᵀ` (`N × N`): node-to-modal projection of row-stacked states.
    v_inv_t: OnceLock<Matrix>,
    /// `w_k = max |V_ik|` over the spreader and sink rows `i`; see
    /// [`non_junction_weights`](ModalBasis::non_junction_weights).
    non_junction_weights: OnceLock<Vector>,
    /// `projᵀ` (`cores × N`): per-core power to eigen-space steady state.
    proj_t: Matrix,
    /// `V⁻¹·T_amb-response`: the zero-power steady state in eigen
    /// coordinates, °C.
    y_amb: Vector,
    /// `V_Jᵀ` (`N × cores`): the junction rows of `V`, transposed —
    /// modal-to-junction readout.
    v_junction_t: Matrix,
    /// Construction-time verdict: the eigenvalue spread or the basis
    /// residual exceeded its trust threshold, so solvers built on this
    /// basis route through their dense fallback from the start.
    armed: bool,
    /// FNV-1a over the bits of `λ`, `V` and `y_amb`; see
    /// [`fingerprint`](ModalBasis::fingerprint).
    fingerprint: u64,
    /// Caches other layers derive from this basis, at most one per type;
    /// see [`cache`](ModalBasis::cache).
    caches: Mutex<Vec<Arc<dyn Any + Send + Sync>>>,
}

impl ModalBasis {
    /// Derives the modal operators of `model` from its eigendecomposition
    /// `eigen` of `C = −A⁻¹B`.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] wrapping
    /// [`LinalgError::DimensionMismatch`] if `eigen` does not have the
    /// model's node count — it then belongs to a different model.
    pub(crate) fn new(model: &RcThermalModel, eigen: SystemEigen) -> Result<Self> {
        let nodes = model.node_count();
        let cores = model.core_count();
        if eigen.dim() != nodes {
            return Err(ThermalError::Linalg(LinalgError::DimensionMismatch {
                op: "modal basis",
                left: (nodes, nodes),
                right: (eigen.dim(), eigen.dim()),
            }));
        }
        let v = eigen.v();
        let v_inv = eigen.v_inv();
        let lambda = eigen.eigenvalues();
        let a = model.a_diag();
        let proj_t = Matrix::from_fn(cores, nodes, |j, i| -v_inv[(i, j)] / (lambda[i] * a[j]));
        let y_amb = v_inv.mul_vector(model.ambient_response());
        let v_junction_t = Matrix::from_fn(nodes, cores, |k, c| v[(c, k)]);
        let armed = eigen.eigenvalue_spread() >= CONDITION_FALLBACK_THRESHOLD
            || eigen.basis_residual() > BASIS_RESIDUAL_THRESHOLD;
        let fingerprint = fnv1a_bits(lambda.iter().chain(v.as_slice()).chain(y_amb.iter()));
        Ok(ModalBasis {
            fingerprint,
            v_t: OnceLock::new(),
            v_inv_t: OnceLock::new(),
            non_junction_weights: OnceLock::new(),
            caches: Mutex::default(),
            proj_t,
            y_amb,
            v_junction_t,
            cores,
            armed,
            eigen,
        })
    }

    /// The underlying eigendecomposition of `C = −A⁻¹B`.
    pub fn eigen(&self) -> &SystemEigen {
        &self.eigen
    }

    /// Thermal node count `N`.
    pub fn node_count(&self) -> usize {
        self.eigen.dim()
    }

    /// Core (junction) count.
    pub fn core_count(&self) -> usize {
        self.cores
    }

    /// `Vᵀ` (`N × N`).
    pub fn v_t(&self) -> &Matrix {
        self.v_t.get_or_init(|| self.eigen.v().transpose())
    }

    /// `V⁻¹ᵀ` (`N × N`).
    pub fn v_inv_t(&self) -> &Matrix {
        self.v_inv_t.get_or_init(|| self.eigen.v_inv().transpose())
    }

    /// Per-mode weights of the spreader and sink rows (`N` entries):
    /// `w_k = max |V_ik|` over the rows `i ≥ cores`, so a change `Δz` of
    /// the eigen coordinates moves no such node by more than
    /// `Σ_k w_k·|Δz_k|`. A NaN entry makes its weight +∞.
    pub(crate) fn non_junction_weights(&self) -> &Vector {
        self.non_junction_weights
            .get_or_init(|| non_junction_weights(self.eigen.v(), self.cores))
    }

    /// `projᵀ` (`cores × N`): row `j` is core `j`'s per-watt contribution
    /// to every eigen-space steady-state coordinate, °C/W.
    pub fn proj_t(&self) -> &Matrix {
        &self.proj_t
    }

    /// The zero-power steady state in eigen coordinates, °C.
    pub fn y_amb(&self) -> &Vector {
        &self.y_amb
    }

    /// `V_Jᵀ` (`N × cores`): the junction rows of `V`, transposed.
    pub fn v_junction_t(&self) -> &Matrix {
        &self.v_junction_t
    }

    /// Whether the eigendecomposition failed its construction-time trust
    /// checks (eigenvalue spread ≥ [`CONDITION_FALLBACK_THRESHOLD`] or
    /// basis residual > 1e-6), so eigen-path outputs cannot be trusted.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// A 64-bit fingerprint of this basis: FNV-1a over the bit patterns
    /// of the eigenvalues, of `V` and of `y_amb`, computed once at
    /// construction.
    ///
    /// Eigen coordinates mean something only in the basis that produced
    /// them. The same decomposition of the same model gives the same
    /// fingerprint, and a difference in any bit changes it (up to a 64-bit
    /// hash collision), so a state saved under one basis is refused by
    /// another: another thermal configuration, another model, or another
    /// eigensolver build.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The cache of type `T` that every holder of this basis shares,
    /// created empty (`T::default()`) by the first request.
    ///
    /// A layer that derives operators of its own from the basis keeps
    /// them here, so the solvers of a model and of its clones build each
    /// operator once, as they share the eigendecomposition. What a cache
    /// holds and how it is bounded is its type's business; it must hold
    /// only pure functions of the basis, since any holder may read what
    /// another one built.
    pub fn cache<T: Any + Send + Sync + Default>(&self) -> Arc<T> {
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cache) = caches
            .iter()
            .find_map(|cache| Arc::clone(cache).downcast::<T>().ok())
        {
            return cache;
        }
        let cache = Arc::new(T::default());
        caches.push(Arc::clone(&cache) as Arc<dyn Any + Send + Sync>);
        cache
    }

    /// The eigen-space steady states `y = P·projᵀ + y_amb` of a
    /// row-stacked batch of per-core power maps (`B × cores` in,
    /// `B × N` out): a zero matrix filled by
    /// [`steady_modal_into`](ModalBasis::steady_modal_into).
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] if `powers` does not have `cores` columns.
    pub fn steady_modal(&self, powers: &Matrix) -> Result<Matrix> {
        if powers.cols() != self.cores {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiply",
                left: (powers.rows(), powers.cols()),
                right: (self.proj_t.rows(), self.proj_t.cols()),
            }
            .into());
        }
        let mut y = Matrix::zeros(powers.rows(), self.node_count());
        self.steady_modal_into(powers.as_slice(), powers.rows(), y.as_mut_slice())?;
        Ok(y)
    }

    /// [`steady_modal`](ModalBasis::steady_modal) of the `rows` power
    /// maps `powers` (`rows × cores`, row-major), written into `out`
    /// (`rows × N`, row-major) without allocating.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Linalg`] if `powers` does not hold `rows × cores`
    /// entries or `out` does not hold `rows × N`.
    pub fn steady_modal_into(&self, powers: &[f64], rows: usize, out: &mut [f64]) -> Result<()> {
        Matrix::gemm_into(powers, rows, &self.proj_t, out)?;
        for row in out.chunks_exact_mut(self.y_amb.len().max(1)) {
            for (v, &amb) in row.iter_mut().zip(self.y_amb.iter()) {
                *v += amb;
            }
        }
        Ok(())
    }
}

/// Column-wise `max |v_ik|` over the rows `i ≥ cores` of `v`, +∞ for a
/// column holding NaN there (`f64::max` would skip it).
pub(crate) fn non_junction_weights(v: &Matrix, cores: usize) -> Vector {
    Vector::from_fn(v.cols(), |k| {
        (cores..v.rows()).fold(0.0, |w: f64, i| {
            let magnitude = v[(i, k)].abs();
            if magnitude.is_nan() {
                f64::INFINITY
            } else {
                w.max(magnitude)
            }
        })
    })
}

/// 64-bit FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a_bits<'a>(values: impl Iterator<Item = &'a f64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for x in values {
        for b in x.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalConfig;
    use hp_floorplan::GridFloorplan;

    fn model_4x4() -> RcThermalModel {
        let fp = GridFloorplan::new(4, 4).unwrap();
        RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap()
    }

    #[test]
    fn steady_modal_reads_back_the_steady_state() {
        let model = model_4x4();
        let eigen = SystemEigen::new(model.a_diag(), model.b()).unwrap();
        let basis = ModalBasis::new(&model, eigen).unwrap();
        let mut p = Vector::constant(16, 0.3);
        p[5] = 7.0;
        let powers = Matrix::from_fn(1, 16, |_, j| p[j]);
        let y = basis.steady_modal(&powers).unwrap();
        let t = y.mul_matrix(basis.v_t()).unwrap();
        let t_ss = model.steady_state(&p).unwrap();
        for i in 0..model.node_count() {
            assert!((t[(0, i)] - t_ss[i]).abs() < 1e-9, "node {i}");
        }
    }

    #[test]
    fn a_cache_is_one_per_type_and_shared_by_the_model_clones() {
        use std::sync::atomic::{AtomicU32, Ordering};
        #[derive(Default)]
        struct Builds(AtomicU32);
        let model = model_4x4();
        let clone = model.clone();
        let basis = Arc::clone(model.basis().unwrap());
        basis.cache::<Builds>().0.fetch_add(1, Ordering::Relaxed);
        let shared = clone.basis().unwrap().cache::<Builds>();
        assert!(Arc::ptr_eq(&shared, &basis.cache::<Builds>()));
        assert_eq!(shared.0.load(Ordering::Relaxed), 1);
        // Another type, another cache; another model, another basis.
        assert!(basis.cache::<Mutex<Vec<f64>>>().lock().unwrap().is_empty());
        let other = model_4x4();
        let fresh = other.basis().unwrap().cache::<Builds>();
        assert_eq!(fresh.0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn junction_readout_is_the_junction_rows_of_v() {
        let model = model_4x4();
        let eigen = SystemEigen::new(model.a_diag(), model.b()).unwrap();
        let basis = ModalBasis::new(&model, eigen).unwrap();
        for k in 0..model.node_count() {
            for c in 0..model.core_count() {
                assert_eq!(basis.v_junction_t()[(k, c)], basis.v_t()[(k, c)]);
            }
        }
        assert!(!basis.armed());
    }

    #[test]
    fn foreign_eigendecomposition_is_rejected() {
        let model = model_4x4();
        let fp = GridFloorplan::new(2, 2).unwrap();
        let small = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
        let eigen = SystemEigen::new(small.a_diag(), small.b()).unwrap();
        assert!(matches!(
            ModalBasis::new(&model, eigen),
            Err(ThermalError::Linalg(LinalgError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn stiff_model_arms_the_basis() {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::ill_conditioned()).unwrap();
        let eigen = SystemEigen::new(model.a_diag(), model.b()).unwrap();
        assert!(ModalBasis::new(&model, eigen).unwrap().armed());
    }

    #[test]
    fn fingerprint_names_the_decomposition_and_the_ambient() {
        let fp = GridFloorplan::new(4, 4).unwrap();
        let of =
            |cfg: &ThermalConfig| basis_of(&RcThermalModel::new(&fp, cfg).unwrap()).fingerprint();
        let base = ThermalConfig::default();
        assert_eq!(of(&base), of(&base), "deterministic");
        let sink = ThermalConfig {
            g_sink_ambient: 0.2,
            ..base
        };
        assert_ne!(of(&base), of(&sink), "another conductance, another basis");
        let warm = ThermalConfig {
            ambient: 50.0,
            ..base
        };
        assert_ne!(of(&base), of(&warm), "same V and λ, another y_amb");
    }

    fn basis_of(model: &RcThermalModel) -> ModalBasis {
        let eigen = SystemEigen::new(model.a_diag(), model.b()).unwrap();
        ModalBasis::new(model, eigen).unwrap()
    }

    /// The single-row batch of one power map.
    fn row_of(p: &Vector) -> Matrix {
        Matrix::from_fn(1, p.len(), |_, j| p[j])
    }

    #[test]
    fn operators_have_the_documented_shapes() {
        let model = model_4x4();
        let basis = basis_of(&model);
        let (n, cores) = (model.node_count(), model.core_count());
        assert_eq!((basis.node_count(), basis.core_count()), (n, cores));
        assert_eq!(basis.eigen().dim(), n);
        assert_eq!((basis.proj_t().rows(), basis.proj_t().cols()), (cores, n));
        assert_eq!(basis.y_amb().len(), n);
        assert_eq!(
            (basis.v_junction_t().rows(), basis.v_junction_t().cols()),
            (n, cores)
        );
        assert_eq!((basis.v_t().rows(), basis.v_t().cols()), (n, n));
        assert_eq!((basis.v_inv_t().rows(), basis.v_inv_t().cols()), (n, n));
    }

    #[test]
    fn lazy_transposes_are_built_once_from_the_eigendecomposition() {
        let basis = basis_of(&model_4x4());
        let v_t = basis.v_t();
        let v_inv_t = basis.v_inv_t();
        assert_eq!(v_t, &basis.eigen().v().transpose());
        assert_eq!(v_inv_t, &basis.eigen().v_inv().transpose());
        // Later calls hand out the same matrices, not fresh transposes.
        assert!(std::ptr::eq(v_t, basis.v_t()));
        assert!(std::ptr::eq(v_inv_t, basis.v_inv_t()));
    }

    #[test]
    fn non_junction_weights_are_the_column_maxima_of_the_other_rows() {
        let basis = basis_of(&model_4x4());
        let weights = basis.non_junction_weights();
        let v = basis.eigen().v();
        for k in 0..48 {
            let column: Vec<f64> = (16..48).map(|i| v[(i, k)].abs()).collect();
            assert!(column.contains(&weights[k]), "mode {k}");
            assert!(column.iter().all(|&a| a <= weights[k]), "mode {k}");
        }
        // Built once, on first use.
        assert!(std::ptr::eq(weights, basis.non_junction_weights()));
        // Junction rows do not count; a NaN in another row is +∞.
        let mut poisoned = v.clone();
        poisoned[(3, 7)] = 1e9;
        poisoned[(30, 9)] = f64::NAN;
        poisoned[(47, 9)] = 2.0;
        let w = non_junction_weights(&poisoned, 16);
        assert_eq!(w[7], weights[7]);
        assert_eq!(w[9], f64::INFINITY);
    }

    #[test]
    fn zero_power_maps_to_the_ambient_coordinates() {
        let basis = basis_of(&model_4x4());
        let y = basis.steady_modal(&Matrix::zeros(1, 16)).unwrap();
        for (i, &amb) in basis.y_amb().iter().enumerate() {
            assert_eq!(y[(0, i)].to_bits(), amb.to_bits(), "mode {i}");
        }
    }

    #[test]
    fn ambient_coordinates_read_back_the_ambient_response() {
        let model = model_4x4();
        let basis = basis_of(&model);
        let t = basis.eigen().v().mul_vector(basis.y_amb());
        let residual = (&t - model.ambient_response()).norm_inf();
        assert!(residual < 1e-9, "residual {residual:e}");
    }

    #[test]
    fn steady_modal_is_affine_in_power() {
        let basis = basis_of(&model_4x4());
        let p1 = Vector::from_fn(16, |c| 0.25 * c as f64);
        let p2 = Vector::from_fn(16, |c| if c.is_multiple_of(3) { 6.0 } else { 0.5 });
        let sum = &p1 + &p2;
        let y1 = basis.steady_modal(&row_of(&p1)).unwrap();
        let y2 = basis.steady_modal(&row_of(&p2)).unwrap();
        let y12 = basis.steady_modal(&row_of(&sum)).unwrap();
        for (i, &amb) in basis.y_amb().iter().enumerate() {
            // y(p1 + p2) − y_amb = (y(p1) − y_amb) + (y(p2) − y_amb).
            let superposed = y1[(0, i)] + y2[(0, i)] - amb;
            assert!((y12[(0, i)] - superposed).abs() < 1e-9, "mode {i}");
        }
    }

    #[test]
    fn batched_rows_match_single_rows_bit_for_bit() {
        let basis = basis_of(&model_4x4());
        let maps: Vec<Vector> = (0..3)
            .map(|k| Vector::from_fn(16, |c| ((c + 5 * k) % 7) as f64 * 0.9 + 0.3))
            .collect();
        let batch = Matrix::from_fn(maps.len(), 16, |r, j| maps[r][j]);
        let y = basis.steady_modal(&batch).unwrap();
        assert_eq!((y.rows(), y.cols()), (3, 48));
        for (r, p) in maps.iter().enumerate() {
            let single = basis.steady_modal(&row_of(p)).unwrap();
            for i in 0..48 {
                assert_eq!(y[(r, i)].to_bits(), single[(0, i)].to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn steady_modal_rejects_a_wrong_core_count() {
        let basis = basis_of(&model_4x4());
        assert!(matches!(
            basis.steady_modal(&Matrix::zeros(2, 15)),
            Err(ThermalError::Linalg(LinalgError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn empty_batch_maps_to_no_rows() {
        let basis = basis_of(&model_4x4());
        let y = basis.steady_modal(&Matrix::zeros(0, 16)).unwrap();
        assert_eq!((y.rows(), y.cols()), (0, 48));
    }

    #[test]
    fn proj_row_is_one_cores_per_watt_steady_response() {
        let model = model_4x4();
        let basis = basis_of(&model);
        let idle = model.steady_state(&Vector::zeros(16)).unwrap();
        for core in [0, 5, 15] {
            let mut unit = Vector::zeros(16);
            unit[core] = 1.0;
            let response = &model.steady_state(&unit).unwrap() - &idle;
            let row = Vector::from(basis.proj_t().row(core).to_vec());
            let t = basis.eigen().v().mul_vector(&row);
            let residual = (&t - &response).norm_inf();
            assert!(residual < 1e-9, "core {core}: residual {residual:e}");
        }
    }

    #[test]
    fn rectangular_grid_basis_reads_back_the_steady_state() {
        // 3 × 2 cores: the core and node counts differ from any square
        // layout, so a transposed operator would not even multiply.
        let fp = GridFloorplan::new(3, 2).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
        let basis = basis_of(&model);
        assert_eq!((basis.core_count(), basis.node_count()), (6, 18));
        assert!(!basis.armed());
        let p = Vector::from_fn(6, |c| 1.0 + c as f64);
        let y = basis.steady_modal(&row_of(&p)).unwrap();
        let t = y.mul_matrix(basis.v_t()).unwrap();
        let t_ss = model.steady_state(&p).unwrap();
        for i in 0..18 {
            assert!((t[(0, i)] - t_ss[i]).abs() < 1e-9, "node {i}");
        }
    }

    #[test]
    fn armed_basis_still_builds_every_operator() {
        // The verdict only routes solvers to the dense fallback; the
        // operators themselves are still derived, with the same shapes.
        let fp = GridFloorplan::new(4, 4).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::ill_conditioned()).unwrap();
        let basis = basis_of(&model);
        assert!(basis.armed());
        assert_eq!((basis.proj_t().rows(), basis.proj_t().cols()), (16, 48));
        assert_eq!(basis.y_amb().len(), 48);
        let y = basis.steady_modal(&Matrix::zeros(1, 16)).unwrap();
        assert_eq!((y.rows(), y.cols()), (1, 48));
    }
}
