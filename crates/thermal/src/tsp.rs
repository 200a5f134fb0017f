//! Thermal Safe Power (TSP) budgeting — paper reference \[14\].
//!
//! TSP answers: *given a set of active cores, what uniform per-core power
//! keeps every steady-state junction temperature at or below the DTM
//! threshold?* DVFS-based schedulers (PCGov/PCMig, the paper's baseline)
//! throttle each active core to its TSP budget; HotPotato instead keeps
//! cores at peak power but rotates threads so the *time-averaged* power per
//! core stays within what TSP would allow.

use hp_floorplan::CoreId;
use hp_linalg::convert::usize_to_f64;
use hp_linalg::Vector;

use crate::{RcThermalModel, Result, ThermalError};

/// The TSP budget for a specific mapping of active cores.
#[derive(Debug, Clone, PartialEq)]
pub struct TspBudget {
    /// Uniform per-core power budget (W) for the active cores.
    pub per_core_watts: f64,
    /// The junction that binds the budget (first to reach the threshold).
    pub critical_core: CoreId,
}

/// Computes the TSP budget for the mapping `active`, with all remaining
/// cores drawing `idle_power` watts.
///
/// The model is affine in power, so the junction temperature of node `i`
/// at uniform active power `p` is
///
/// ```text
/// T_i(p) = amb_i + idle_i + p · S_i,   S_i = Σ_{j ∈ active} (B⁻¹)_{i,j}
/// ```
///
/// and the budget is `min_i (T_dtm − amb_i − idle_i) / S_i` over junctions
/// with `S_i > 0`: two linear solves, one for the baseline and one for `S`.
///
/// # Errors
///
/// * [`ThermalError::EmptyActiveSet`] if `active` is empty.
/// * [`ThermalError::Floorplan`] for out-of-range core ids.
/// * [`ThermalError::InvalidParameter`] if the idle load alone already
///   violates the threshold (reported on `t_dtm`).
///
/// # Example
///
/// ```
/// use hp_floorplan::{CoreId, GridFloorplan};
/// use hp_thermal::{tsp, RcThermalModel, ThermalConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fp = GridFloorplan::new(4, 4)?;
/// let model = RcThermalModel::new(&fp, &ThermalConfig::default())?;
/// let budget = tsp::budget(&model, &[CoreId(5), CoreId(10)], 70.0, 0.3)?;
/// // Two active cores may burn a few watts each, but not peak power.
/// assert!(budget.per_core_watts > 1.0 && budget.per_core_watts < 7.0);
/// # Ok(())
/// # }
/// ```
pub fn budget(
    model: &RcThermalModel,
    active: &[CoreId],
    t_dtm: f64,
    idle_power: f64,
) -> Result<TspBudget> {
    if active.is_empty() {
        return Err(ThermalError::EmptyActiveSet);
    }
    let n = model.core_count();
    for &c in active {
        if c.index() >= n {
            return Err(ThermalError::Floorplan(
                hp_floorplan::FloorplanError::CoreOutOfRange {
                    core: c.index(),
                    cores: n,
                },
            ));
        }
    }

    // Baseline: ambient + idle power on the inactive cores (active cores
    // contribute 0 W in the baseline; their power is the unknown).
    let mut idle_map = Vector::constant(n, idle_power);
    for &c in active {
        idle_map[c.index()] = 0.0;
    }
    let baseline = model.steady_state(&idle_map)?;

    // Sensitivity S = B^{-1} · 1_active restricted to junction rows.
    let indicator = {
        let mut p = Vector::zeros(n);
        for &c in active {
            p[c.index()] = 1.0;
        }
        model.expand_power(&p)?
    };
    let sensitivity = model.b_lu().solve(&indicator)?;

    let mut best = f64::INFINITY;
    let mut critical = active[0];
    for i in 0..n {
        let s = sensitivity[i];
        if s <= 0.0 {
            continue;
        }
        let headroom = t_dtm - baseline[i];
        if headroom <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "t_dtm",
                value: t_dtm,
            });
        }
        let p = headroom / s;
        if p < best {
            best = p;
            critical = CoreId(i);
        }
    }

    Ok(TspBudget {
        per_core_watts: best,
        critical_core: critical,
    })
}

/// Non-uniform per-core budgets for the mapping `active`: the
/// water-filling extension of TSP.
///
/// The uniform budget of [`budget`] is limited by the single most
/// constrained junction; cooler (peripheral) cores still have headroom.
/// This routine raises every active core's budget until *its own*
/// junction sits at the threshold, by fixed-point iteration on the affine
/// model:
///
/// ```text
/// p_i ← p_i + (T_dtm − T_i) / (B⁻¹)_{ii}
/// ```
///
/// The result allocates strictly more total power than the uniform
/// budget whenever the mapping is thermally heterogeneous — the
/// headroom a Pareto-optimal DVFS controller (PCGov) exploits.
///
/// Returns one budget per entry of `active` (same order).
///
/// # Errors
///
/// Same as [`budget`]; additionally [`ThermalError::InvalidParameter`]
/// (on `iterations`) if the fixed point fails to converge.
pub fn per_core_budgets(
    model: &RcThermalModel,
    active: &[CoreId],
    t_dtm: f64,
    idle_power: f64,
) -> Result<Vec<f64>> {
    // Start from the safe uniform budget.
    let uniform = budget(model, active, t_dtm, idle_power)?;
    let n = model.core_count();
    let mut p = Vector::constant(n, idle_power);
    for &c in active {
        p[c.index()] = uniform.per_core_watts;
    }
    // Diagonal sensitivities (B^{-1})_{ii} for the active junctions.
    let mut diag = vec![0.0; active.len()];
    for (k, &c) in active.iter().enumerate() {
        let mut unit = Vector::zeros(n);
        unit[c.index()] = 1.0;
        let expanded = model.expand_power(&unit)?;
        let col = model.b_lu().solve(&expanded)?;
        diag[k] = col[c.index()];
    }

    const MAX_ITERS: usize = 200;
    for _ in 0..MAX_ITERS {
        let t = model.steady_state(&p)?;
        let mut worst = 0.0f64;
        for (k, &c) in active.iter().enumerate() {
            let headroom = t_dtm - t[c.index()];
            worst = worst.max(headroom.abs());
            // Under-relaxed update keeps the coupled system stable.
            let next = (p[c.index()] + 0.8 * headroom / diag[k]).max(0.0);
            p[c.index()] = next;
        }
        if worst < 1e-6 {
            return Ok(active.iter().map(|c| p[c.index()]).collect());
        }
    }
    Err(ThermalError::InvalidParameter {
        name: "iterations",
        value: usize_to_f64(MAX_ITERS),
    })
}

/// The *worst-case* mapping of `k` active cores for TSP: the densest
/// packing around the die centre, which produces the tightest budget.
///
/// The original TSP paper finds the exact worst case by search; for a
/// symmetric grid the centre-packed mapping is the worst case, so we use it
/// directly (documented substitution — the schedulers only ever use
/// mapping-specific budgets, this is for reporting). The model does not
/// retain the floorplan, so the centre is found thermally: the `k`
/// junctions with the largest `(B⁻¹·1)_i`, ties in core order.
///
/// # Errors
///
/// * [`ThermalError::EmptyActiveSet`] if `k == 0`.
/// * [`ThermalError::InvalidParameter`] if `k` exceeds the core count.
/// * A propagated solver error.
pub fn worst_case_mapping(model: &RcThermalModel, k: usize) -> Result<Vec<CoreId>> {
    let n = model.core_count();
    if k == 0 {
        return Err(ThermalError::EmptyActiveSet);
    }
    if k > n {
        return Err(ThermalError::InvalidParameter {
            name: "k",
            value: usize_to_f64(k),
        });
    }
    let all = Vector::constant(n, 1.0);
    let sens = model.b_lu().solve(&model.expand_power(&all)?)?;
    let mut order: Vec<CoreId> = (0..n).map(CoreId).collect();
    order.sort_by(|a, b| sens[b.index()].total_cmp(&sens[a.index()]));
    order.truncate(k);
    Ok(order)
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
    fn budget_is_safe_and_tight() {
        let model = model_4x4();
        let active = [CoreId(5), CoreId(10)];
        let b = budget(&model, &active, 70.0, 0.3).unwrap();
        let mut power = hp_linalg::Vector::constant(16, 0.3);
        for c in active {
            power[c.index()] = b.per_core_watts;
        }
        let temperatures = model.core_temperatures(&model.steady_state(&power).unwrap());
        // Safe: no junction exceeds the threshold at the budget...
        assert!(temperatures.max() <= 70.0 + 1e-6);
        // ...and tight: the critical junction sits exactly at it.
        assert!((temperatures.max() - 70.0).abs() < 1e-6);
        assert!((temperatures[b.critical_core.index()] - 70.0).abs() < 1e-6);
    }

    #[test]
    fn more_active_cores_means_smaller_budget() {
        let model = model_4x4();
        let b2 = budget(&model, &[CoreId(5), CoreId(10)], 70.0, 0.3).unwrap();
        let b4 = budget(
            &model,
            &[CoreId(5), CoreId(6), CoreId(9), CoreId(10)],
            70.0,
            0.3,
        )
        .unwrap();
        assert!(b4.per_core_watts < b2.per_core_watts);
    }

    #[test]
    fn peripheral_mapping_gets_bigger_budget_than_center_packed() {
        // Under load (the regime the schedulers operate in), the die centre
        // is thermally constrained: a centre-packed mapping receives a
        // smaller budget than a peripheral one (paper Fig. 3).
        let model = model_4x4();
        let center8: Vec<CoreId> = [1usize, 2, 5, 6, 9, 10, 13, 14].map(CoreId).to_vec();
        let outer8: Vec<CoreId> = [0usize, 3, 4, 7, 8, 11, 12, 15].map(CoreId).to_vec();
        let bc = budget(&model, &center8, 70.0, 0.3).unwrap();
        let bo = budget(&model, &outer8, 70.0, 0.3).unwrap();
        assert!(bo.per_core_watts > bc.per_core_watts);
    }

    #[test]
    fn budget_grows_with_threshold() {
        let model = model_4x4();
        let lo = budget(&model, &[CoreId(5)], 65.0, 0.3).unwrap();
        let hi = budget(&model, &[CoreId(5)], 75.0, 0.3).unwrap();
        assert!(hi.per_core_watts > lo.per_core_watts);
    }

    #[test]
    fn empty_active_set_rejected() {
        let model = model_4x4();
        assert!(matches!(
            budget(&model, &[], 70.0, 0.3),
            Err(ThermalError::EmptyActiveSet)
        ));
    }

    #[test]
    fn out_of_range_core_rejected() {
        let model = model_4x4();
        assert!(budget(&model, &[CoreId(99)], 70.0, 0.3).is_err());
    }

    #[test]
    fn impossible_threshold_rejected() {
        let model = model_4x4();
        // Threshold below ambient can never be met.
        assert!(budget(&model, &[CoreId(5)], 40.0, 0.3).is_err());
    }

    #[test]
    fn worst_case_no_larger_than_peripheral() {
        let model = model_4x4();
        let wc = budget(&model, &worst_case_mapping(&model, 8).unwrap(), 70.0, 0.3).unwrap();
        let outer8: Vec<CoreId> = [0usize, 3, 4, 7, 8, 11, 12, 15].map(CoreId).to_vec();
        let outer = budget(&model, &outer8, 70.0, 0.3).unwrap();
        assert!(wc.per_core_watts <= outer.per_core_watts + 1e-9);
    }

    #[test]
    fn worst_case_full_chip_matches_all_active() {
        let model = model_4x4();
        let all: Vec<CoreId> = (0..16).map(CoreId).collect();
        let mapping = worst_case_mapping(&model, 16).unwrap();
        let mut sorted = mapping.clone();
        sorted.sort();
        assert_eq!(sorted, all);
        let wc = budget(&model, &mapping, 70.0, 0.3).unwrap();
        let direct = budget(&model, &all, 70.0, 0.3).unwrap();
        assert!((wc.per_core_watts - direct.per_core_watts).abs() < 1e-9);
    }

    #[test]
    fn per_core_budgets_saturate_every_junction() {
        let model = model_4x4();
        let active: Vec<CoreId> = [0usize, 5, 6, 15].map(CoreId).to_vec();
        let budgets = per_core_budgets(&model, &active, 70.0, 0.3).unwrap();
        // Applying the budgets puts every active junction at the threshold.
        let mut p = hp_linalg::Vector::constant(16, 0.3);
        for (k, &c) in active.iter().enumerate() {
            p[c.index()] = budgets[k];
        }
        let t = model.steady_state(&p).unwrap();
        for &c in &active {
            assert!(
                (t[c.index()] - 70.0).abs() < 1e-4,
                "core {c}: {}",
                t[c.index()]
            );
        }
        // And nothing else exceeds it.
        assert!(model.core_temperatures(&t).max() <= 70.0 + 1e-4);
    }

    #[test]
    fn per_core_budgets_beat_uniform_total() {
        let model = model_4x4();
        let active: Vec<CoreId> = [0usize, 5, 6, 15].map(CoreId).to_vec();
        let uniform = budget(&model, &active, 70.0, 0.3).unwrap();
        let budgets = per_core_budgets(&model, &active, 70.0, 0.3).unwrap();
        let total: f64 = budgets.iter().sum();
        assert!(total > uniform.per_core_watts * active.len() as f64);
        // Note: individual budgets need not all exceed the uniform one —
        // saturating the cool junctions heats the critical one, whose own
        // budget can dip slightly below uniform. The *total* gain is the
        // point.
    }

    #[test]
    fn per_core_budgets_favor_the_periphery() {
        let model = model_4x4();
        let active: Vec<CoreId> = [0usize, 5].map(CoreId).to_vec();
        let budgets = per_core_budgets(&model, &active, 70.0, 0.3).unwrap();
        // Corner core 0 cools better than centre core 5 under load-free
        // surroundings? With the edge bonuses it does at saturation.
        assert!(
            budgets[0] != budgets[1],
            "heterogeneous mapping must yield heterogeneous budgets"
        );
    }

    #[test]
    fn worst_case_bounds() {
        let model = model_4x4();
        assert!(matches!(
            worst_case_mapping(&model, 0),
            Err(ThermalError::EmptyActiveSet)
        ));
        assert!(worst_case_mapping(&model, 17).is_err());
        // The centre four of the 4×4 chip pack tightest.
        let mut centre = worst_case_mapping(&model, 4).unwrap();
        centre.sort();
        assert_eq!(centre, [5usize, 6, 9, 10].map(CoreId));
    }
}
