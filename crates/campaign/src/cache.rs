//! The shared, immutable model cache.
//!
//! Every job in a sweep needs the same expensive per-chip-configuration
//! artifacts: the machine description with its AMD ring decomposition,
//! the RC thermal model (one LU factorization of `B`), and the model's
//! eigendecomposition of `C = −A⁻¹B` with its modal operators
//! ([`ModalBasis`](hp_thermal::ModalBasis)), which the model owns and
//! shares with every clone. [`ModelCache`] memoizes one
//! [`ChipArtifacts`] per grid size; jobs then *clone* the handles — the
//! engine's transient solver and every scheduler's rotation-peak solver
//! step in the one basis — instead of re-factorizing.
//!
//! The cache is keyed by grid dimensions plus the named
//! [`ThermalProfile`]: within one profile the RC parameters are fixed,
//! so that pair fully determines the model (DESIGN.md §11). Profiles
//! other than [`ThermalProfile::Default`] exist for numerical-integrity
//! drills — the `ill-conditioned` profile builds a model stiff enough
//! to arm the solvers' dense fallback at construction.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hp_manycore::{ArchConfig, Machine};
use hp_sim::codec::Labelled;
use hp_thermal::{RcThermalModel, ThermalConfig, TransientSolver};

use crate::error::{CampaignError, Result};

/// Named RC parameter set of a campaign job.
///
/// A campaign sweeps scenarios, not physics: jobs pick one of a small
/// set of named profiles rather than free-form `ThermalConfig`s, so the
/// model cache can key on the name and the spec grammar stays flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ThermalProfile {
    /// The paper's RC parameters ([`ThermalConfig::default`]).
    #[default]
    Default,
    /// [`ThermalConfig::ill_conditioned`]: a deliberately stiff model
    /// (capacitance ratio beyond the condition threshold) that arms the
    /// solvers' verified dense fallback at construction — the chaos
    /// fixture for numerical-integrity drills.
    IllConditioned,
}

impl ThermalProfile {
    /// Spec / report label of the profile.
    pub fn name(self) -> &'static str {
        match self {
            ThermalProfile::Default => "default",
            ThermalProfile::IllConditioned => "ill-conditioned",
        }
    }

    /// Inverse of [`name`](ThermalProfile::name). `None` for unknown
    /// labels.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// The RC parameters the profile names.
    pub fn config(self) -> ThermalConfig {
        match self {
            ThermalProfile::Default => ThermalConfig::default(),
            ThermalProfile::IllConditioned => ThermalConfig::ill_conditioned(),
        }
    }
}

/// Spec documents name a profile by its label.
impl Labelled for ThermalProfile {
    const KIND: &'static str = "thermal profile";
    const ALL: &'static [Self] = &[ThermalProfile::Default, ThermalProfile::IllConditioned];
    fn label(self) -> &'static str {
        self.name()
    }
}

/// The memoized per-chip-configuration artifacts, built once per grid
/// size and shared across every job of a campaign via `Arc`.
///
/// All fields are cheap to clone relative to construction: a model clone
/// shares the model's modal basis, and a solver clone shares it too and
/// starts fresh activity tallies.
#[derive(Debug)]
pub struct ChipArtifacts {
    /// The machine (floorplan + AMD ring decomposition).
    pub machine: Machine,
    /// The RC thermal model (LU of `B` already factorized, modal basis
    /// already built).
    pub model: RcThermalModel,
    /// The engine's transient solver, on the model's basis.
    pub transient: TransientSolver,
}

impl ChipArtifacts {
    /// Builds the artifacts for a `width × height` grid with the given
    /// thermal profile: one machine, one LU factorization and one
    /// eigendecomposition, whose basis every scheduler built on a clone
    /// of [`model`](ChipArtifacts::model) shares.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Build`] on invalid grids or failed
    /// factorizations.
    pub fn build(width: usize, height: usize, thermal: ThermalProfile) -> Result<Self> {
        let build_err = |what: &str, e: &dyn std::fmt::Display| -> CampaignError {
            CampaignError::Build(format!(
                "{width}x{height} grid ({} thermal): {what}: {e}",
                thermal.name()
            ))
        };
        let machine = Machine::new(ArchConfig {
            grid_width: width,
            grid_height: height,
            ..ArchConfig::default()
        })
        .map_err(|e| build_err("machine", &e))?;
        let model = RcThermalModel::new(machine.floorplan(), &thermal.config())
            .map_err(|e| build_err("thermal model", &e))?;
        let transient =
            TransientSolver::new(&model).map_err(|e| build_err("eigendecomposition", &e))?;
        Ok(ChipArtifacts {
            machine,
            model,
            transient,
        })
    }
}

/// Thread-safe memoization of [`ChipArtifacts`] by grid size and
/// thermal profile, with deterministic hit/miss counters.
///
/// Lookups serialize on one mutex and build missing entries under the
/// lock, so each grid is factorized exactly once no matter how many
/// workers race for it — which also makes the counters independent of
/// scheduling: for any worker count, `misses` equals the number of
/// distinct grids touched and `hits` equals `lookups − misses`.
///
/// A disabled cache (`ModelCache::new(false)`) builds fresh artifacts on
/// every lookup and counts each as a miss; results are bit-identical
/// either way, only wall-clock time differs.
#[derive(Debug)]
pub struct ModelCache {
    enabled: bool,
    state: Mutex<CacheState>,
}

/// The entries and the lookup tallies, updated under one lock.
#[derive(Debug, Default)]
struct CacheState {
    entries: BTreeMap<(usize, usize, ThermalProfile), Arc<ChipArtifacts>>,
    hits: u64,
    misses: u64,
}

impl ModelCache {
    /// Creates an empty cache; `enabled = false` turns it into a
    /// pass-through that rebuilds per lookup (for A/B measurements).
    pub fn new(enabled: bool) -> Self {
        ModelCache {
            enabled,
            state: Mutex::new(CacheState::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        // A poisoned lock only means another worker panicked mid-insert;
        // the map holds immutable Arcs, so its contents stay valid.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The artifacts for a `width × height` grid under the given thermal
    /// profile, built on first use.
    ///
    /// # Errors
    ///
    /// Propagates [`ChipArtifacts::build`] failures.
    pub fn get_or_build(
        &self,
        width: usize,
        height: usize,
        thermal: ThermalProfile,
    ) -> Result<Arc<ChipArtifacts>> {
        if !self.enabled {
            // Counted, then built outside the lock: a disabled cache
            // serializes nothing.
            self.lock().misses += 1;
            return Ok(Arc::new(ChipArtifacts::build(width, height, thermal)?));
        }
        let key = (width, height, thermal);
        let mut state = self.lock();
        if let Some(art) = state.entries.get(&key).cloned() {
            state.hits += 1;
            return Ok(art);
        }
        state.misses += 1;
        let art = Arc::new(ChipArtifacts::build(width, height, thermal)?);
        state.entries.insert(key, Arc::clone(&art));
        Ok(art)
    }

    /// Whether memoization is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that built fresh artifacts.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = ModelCache::new(true);
        let a = cache.get_or_build(4, 4, ThermalProfile::Default).unwrap();
        let b = cache.get_or_build(4, 4, ThermalProfile::Default).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the entry");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        cache.get_or_build(2, 2, ThermalProfile::Default).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn thermal_profiles_get_distinct_entries() {
        let cache = ModelCache::new(true);
        let healthy = cache.get_or_build(4, 4, ThermalProfile::Default).unwrap();
        let stiff = cache
            .get_or_build(4, 4, ThermalProfile::IllConditioned)
            .unwrap();
        assert!(!Arc::ptr_eq(&healthy, &stiff), "profiles must not alias");
        assert_eq!(cache.misses(), 2);
        assert!(!healthy.transient.degraded(), "default profile is healthy");
        assert!(
            stiff.transient.degraded() && stiff.model.basis().unwrap().armed(),
            "ill-conditioned profile arms the dense fallback at build time"
        );
    }

    #[test]
    fn profile_names_round_trip() {
        for p in [ThermalProfile::Default, ThermalProfile::IllConditioned] {
            assert_eq!(ThermalProfile::from_name(p.name()), Some(p));
        }
        assert_eq!(ThermalProfile::from_name("toasty"), None);
    }

    #[test]
    fn disabled_cache_rebuilds_every_time() {
        let cache = ModelCache::new(false);
        let a = cache.get_or_build(2, 2, ThermalProfile::Default).unwrap();
        let b = cache.get_or_build(2, 2, ThermalProfile::Default).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn invalid_grid_is_a_build_error() {
        let cache = ModelCache::new(true);
        let err = cache
            .get_or_build(0, 4, ThermalProfile::Default)
            .unwrap_err();
        assert!(matches!(err, CampaignError::Build(_)), "{err}");
    }

    #[test]
    fn cached_solvers_match_fresh_construction() {
        use hp_linalg::Vector;
        let art = ChipArtifacts::build(4, 4, ThermalProfile::Default).unwrap();
        let fresh = TransientSolver::new(&art.model).unwrap();
        let power = Vector::constant(16, 2.0);
        let t0 = art.model.ambient_state();
        let cached = art.transient.step(&art.model, &t0, &power, 1e-3).unwrap();
        let direct = fresh.step(&art.model, &t0, &power, 1e-3).unwrap();
        for i in 0..cached.len() {
            assert_eq!(cached[i].to_bits(), direct[i].to_bits());
        }
    }

    #[test]
    fn artifacts_share_one_modal_basis() {
        let art = ChipArtifacts::build(4, 4, ThermalProfile::Default).unwrap();
        let basis = art.model.basis().unwrap();
        assert!(std::ptr::eq(art.transient.basis(), &**basis));
        // Job handles are clones; they keep pointing at the same basis.
        let job_transient = art.transient.clone();
        let job_model = art.model.clone();
        assert!(std::ptr::eq(job_transient.basis(), &**basis));
        assert!(std::ptr::eq(&**job_model.basis().unwrap(), &**basis));
    }

    #[test]
    fn hotpotato_on_a_model_clone_steps_on_the_transient_basis() {
        use hotpotato::{HotPotato, HotPotatoConfig};
        let art = ChipArtifacts::build(4, 4, ThermalProfile::Default).unwrap();
        let sched = HotPotato::new(art.model.clone(), HotPotatoConfig::default()).unwrap();
        assert!(std::ptr::eq(
            sched.solver().runtime().basis(),
            art.transient.basis()
        ));
    }

    #[test]
    fn cached_peak_solver_matches_fresh_construction() {
        use hotpotato::{EpochPowerSequence, RotationPeakSolver};
        use hp_linalg::Vector;
        let art = ChipArtifacts::build(4, 4, ThermalProfile::Default).unwrap();
        let cached = RotationPeakSolver::new(art.model).unwrap();
        let fresh_model = ChipArtifacts::build(4, 4, ThermalProfile::Default)
            .unwrap()
            .model;
        let fresh = RotationPeakSolver::new(fresh_model).unwrap();
        assert!(!std::ptr::eq(cached.eigen(), fresh.eigen()));
        let epochs = (0..4)
            .map(|e| Vector::from_fn(16, |c| if c % 4 == e { 7.0 } else { 0.3 }))
            .collect();
        let seq = EpochPowerSequence::new(1e-3, epochs).unwrap();
        let cached = cached.peak_celsius(&seq).unwrap();
        let direct = fresh.peak_celsius(&seq).unwrap();
        assert_eq!(cached.to_bits(), direct.to_bits());
    }
}
