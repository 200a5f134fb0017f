//! Thermal Safe Power (TSP) budgeting — paper reference \[14\].
//!
//! TSP answers: *given a set of active cores, what uniform per-core power
//! keeps every steady-state junction temperature at or below the DTM
//! threshold?* DVFS-based schedulers (PCGov/PCMig, the paper's baseline)
//! throttle each active core to its TSP budget; HotPotato instead keeps
//! cores at peak power but rotates threads so the *time-averaged* power per
//! core stays within what TSP would allow.
//!
//! Every budget reads junction rows only. With power on the junctions,
//! the steady junction temperatures are `T_J = ambient_J + R_J·p`, where
//! `ambient_J` is the junction rows of the ambient response and `R_J`
//! the junction block of `B⁻¹`
//! ([`RcThermalModel::junction_influence`]), built once per chip from the
//! model's LU and shared by its clones. A budget is sums over `R_J`'s
//! entries, with no linear solve.

use hp_floorplan::CoreId;
use hp_linalg::convert::usize_to_f64;

use crate::{RcThermalModel, Result, ThermalError};

/// Candidate budgets that round to the same multiple of this many W tie
/// for the critical core, and the lower core index wins. Thermally
/// symmetric junctions bind at equal budgets up to round-off, which any
/// change in the thermal arithmetic reorders.
const TIE_WATTS: f64 = 1e-9;

/// `R_J` row sums that round to the same multiple of this many °C/W tie
/// in [`worst_case_mapping`], and the lower core index wins.
const TIE_CELSIUS_PER_WATT: f64 = 1e-9;

/// The TSP budget for a specific mapping of active cores.
#[derive(Debug, Clone, PartialEq)]
pub struct TspBudget {
    /// Uniform per-core power budget (W) for the active cores.
    pub per_core_watts: f64,
    /// The junction that binds the budget (first to reach the threshold;
    /// of junctions that bind within 1e-9 W of each other, the lowest
    /// index).
    pub critical_core: CoreId,
}

/// Computes the TSP budget for the mapping `active`, with all remaining
/// cores drawing `idle_power` watts.
///
/// The model is affine in power, so the junction temperature of core `i`
/// at uniform active power `p` is
///
/// ```text
/// T_i(p) = amb_i + idle · Σ_{j ∉ active} R_ij + p · S_i,   S_i = Σ_{j ∈ active} R_ij
/// ```
///
/// with `R` the junction-influence block `R_J`, and the budget is
/// `min_i (T_dtm − amb_i − idle · Σ_{j ∉ active} R_ij) / S_i` over
/// junctions with `S_i > 0`: one pass over `R_J`.
///
/// # Errors
///
/// * [`ThermalError::EmptyActiveSet`] if `active` is empty.
/// * [`ThermalError::Floorplan`] for out-of-range core ids.
/// * [`ThermalError::InvalidParameter`] if the idle load alone already
///   violates the threshold (reported on `t_dtm`).
/// * A propagated solver error from `R_J`'s first build.
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
    let mut is_active = vec![false; n];
    for &c in active {
        let Some(slot) = is_active.get_mut(c.index()) else {
            return Err(ThermalError::Floorplan(
                hp_floorplan::FloorplanError::CoreOutOfRange {
                    core: c.index(),
                    cores: n,
                },
            ));
        };
        *slot = true;
    }
    let resistance = model.junction_influence()?;

    let mut best = f64::INFINITY;
    // The rounded key and index of the binding junction.
    let mut critical: Option<(f64, usize)> = None;
    for (i, &ambient) in model.ambient_response().iter().take(n).enumerate() {
        // S_i over the active columns, the idle rise over the rest.
        let (mut s, mut idle) = (0.0, 0.0);
        for (&r, &on) in resistance.row(i).iter().zip(&is_active) {
            if on {
                s += r;
            } else {
                idle += r;
            }
        }
        if s <= 0.0 {
            continue;
        }
        let headroom = t_dtm - (ambient + idle_power * idle);
        if headroom <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "t_dtm",
                value: t_dtm,
            });
        }
        let p = headroom / s;
        best = best.min(p);
        let key = (p / TIE_WATTS).round();
        if critical.is_none_or(|(k, _)| key < k) {
            critical = Some((key, i));
        }
    }

    Ok(TspBudget {
        per_core_watts: best,
        critical_core: critical.map_or(active[0], |(_, i)| CoreId(i)),
    })
}

/// Non-uniform per-core budgets for the mapping `active`: the
/// water-filling extension of TSP.
///
/// The uniform budget of [`budget`] is limited by the single most
/// constrained junction; cooler (peripheral) cores still have headroom.
/// This routine raises every active core's budget until *its own*
/// junction sits at the threshold, by under-relaxed fixed-point iteration
/// on the junction temperatures `T = ambient_J + R_J·p`, starting from the
/// uniform budget:
///
/// ```text
/// p_i ← max(0, p_i + 0.8 · (T_dtm − T_i) / (R_J)_{ii})
/// ```
///
/// until every active junction is within 1e-6 °C of the threshold, for at
/// most 200 iterations.
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
    let resistance = model.junction_influence()?;
    let ambient = model.ambient_response();
    let mut p = vec![idle_power; model.core_count()];
    for &c in active {
        p[c.index()] = uniform.per_core_watts;
    }
    // Diagonal sensitivities (R_J)_{ii} of the active junctions.
    let diag: Vec<f64> = active
        .iter()
        .map(|c| resistance[(c.index(), c.index())])
        .collect();

    const MAX_ITERS: usize = 200;
    let mut temps = vec![0.0; active.len()];
    for _ in 0..MAX_ITERS {
        // Every active junction at this iterate, before any update.
        for (t, &c) in temps.iter_mut().zip(active) {
            let rise: f64 = resistance
                .row(c.index())
                .iter()
                .zip(&p)
                .map(|(r, w)| r * w)
                .sum();
            *t = ambient[c.index()] + rise;
        }
        let mut worst = 0.0f64;
        for ((&c, &t), &d) in active.iter().zip(&temps).zip(&diag) {
            let headroom = t_dtm - t;
            worst = worst.max(headroom.abs());
            // Under-relaxed update keeps the coupled system stable.
            p[c.index()] = (p[c.index()] + 0.8 * headroom / d).max(0.0);
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

/// A *worst-case* mapping of `k` active cores for TSP: the densest
/// packing around the die centre, chosen greedily for the tightest
/// budget.
///
/// The original TSP paper finds the exact worst case by search; this
/// greedy rule is a documented substitution (the schedulers only ever use
/// mapping-specific budgets, this is for reporting). The model does not
/// retain the floorplan, so the centre is found thermally. First come the
/// cores whose `R_J` row sum (each junction's rise with 1 W on every
/// core), rounded to 1e-9 °C/W, exceeds the `k`-th largest. The rest come
/// from the cores that tie with the `k`-th (a symmetry orbit `k` may
/// cut), one at a time: each the core that maximises the hottest
/// junction's rise per watt on the cores chosen so far,
/// `max_i Σ_{c ∈ chosen} R_J[i][c]`, rounded alike, the lower core index
/// winning a tie. On the square grids from 4×4 to 10×10 at 70 °C this
/// finds the tightest budget of any choice from the cut orbit, but it
/// does not search.
///
/// # Errors
///
/// * [`ThermalError::EmptyActiveSet`] if `k == 0`.
/// * [`ThermalError::InvalidParameter`] if `k` exceeds the core count.
/// * A propagated solver error from `R_J`'s first build.
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
    let resistance = model.junction_influence()?;
    let key = |celsius_per_watt: f64| (celsius_per_watt / TIE_CELSIUS_PER_WATT).round();
    let mut order: Vec<(f64, usize)> = (0..n)
        .map(|i| (key(resistance.row(i).iter().sum()), i))
        .collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    // The cores above the k-th, then the orbit `k` cuts: every core tied
    // with the k-th, in core order.
    let boundary = order[k - 1].0;
    let above = order.iter().take_while(|(sum, _)| *sum > boundary).count();
    let mut chosen: Vec<usize> = order[..above].iter().map(|&(_, c)| c).collect();
    let mut orbit: Vec<usize> = order[above..]
        .iter()
        .take_while(|(sum, _)| *sum == boundary)
        .map(|&(_, c)| c)
        .collect();
    // Each junction's rise per watt on the chosen cores.
    let mut rise = vec![0.0; n];
    let add = |rise: &mut [f64], c: usize| {
        for (i, r) in rise.iter_mut().enumerate() {
            *r += resistance[(i, c)];
        }
    };
    for &c in &chosen {
        add(&mut rise, c);
    }
    while chosen.len() < k {
        let mut best: Option<(f64, usize)> = None;
        for (at, &c) in orbit.iter().enumerate() {
            let hottest = rise
                .iter()
                .enumerate()
                .map(|(i, r)| r + resistance[(i, c)])
                .fold(f64::NEG_INFINITY, f64::max);
            if best.is_none_or(|(b, _)| key(hottest) > b) {
                best = Some((key(hottest), at));
            }
        }
        let Some((_, at)) = best else { break };
        let c = orbit.remove(at);
        add(&mut rise, c);
        chosen.push(c);
    }
    Ok(chosen.into_iter().map(CoreId).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalConfig;
    use hp_floorplan::GridFloorplan;
    use hp_linalg::Vector;

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

    /// The budget as two solves of the full model: the idle baseline and
    /// the sensitivity `B⁻¹·1_active`, both through the model's LU.
    fn lu_reference(model: &RcThermalModel, active: &[CoreId], t_dtm: f64, idle: f64) -> f64 {
        let n = model.core_count();
        let mut idle_map = Vector::constant(n, idle);
        let mut indicator = Vector::zeros(n);
        for &c in active {
            idle_map[c.index()] = 0.0;
            indicator[c.index()] = 1.0;
        }
        let baseline = model.steady_state(&idle_map).unwrap();
        let sensitivity = &model.steady_state(&indicator).unwrap() - model.ambient_response();
        (0..n)
            .map(|i| (t_dtm - baseline[i]) / sensitivity[i])
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn budget_matches_the_lu_reference() {
        for (w, h) in [(4, 4), (8, 8)] {
            let fp = GridFloorplan::new(w, h).unwrap();
            let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
            let n = w * h;
            let mappings: Vec<Vec<CoreId>> = vec![
                vec![CoreId(0)],
                vec![CoreId(n / 2), CoreId(n / 2 + 1)],
                (0..n).step_by(2).map(CoreId).collect(),
                (0..n / 2).map(CoreId).collect(),
                worst_case_mapping(&model, n / 2).unwrap(),
                (0..n).map(CoreId).collect(),
            ];
            for active in &mappings {
                for (t_dtm, idle) in [(70.0, 0.3), (60.0, 0.0), (80.0, 1.0)] {
                    let got = budget(&model, active, t_dtm, idle).unwrap().per_core_watts;
                    let want = lu_reference(&model, active, t_dtm, idle);
                    assert!(
                        (got - want).abs() <= 1e-9,
                        "{w}x{h}, {} active: {got} W vs {want} W",
                        active.len()
                    );
                }
            }
        }
    }

    #[test]
    fn thermally_symmetric_cores_tie_in_core_order() {
        let fp = GridFloorplan::new(8, 8).unwrap();
        let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
        // The four centre cores 27, 28, 35 and 36 are one orbit of the
        // chip's symmetry: the lowest index wins.
        assert_eq!(worst_case_mapping(&model, 1).unwrap(), [CoreId(27)]);
        let mut centre = worst_case_mapping(&model, 4).unwrap();
        assert_eq!(centre, [27usize, 28, 35, 36].map(CoreId));
        // With all four active, each binds the budget alike.
        centre.reverse();
        let b = budget(&model, &centre, 70.0, 0.3).unwrap();
        assert_eq!(b.critical_core, CoreId(27));
        // So do the four corners of the 4×4 chip.
        let model = model_4x4();
        let corners = [15usize, 12, 3, 0].map(CoreId);
        assert_eq!(
            budget(&model, &corners, 70.0, 0.3).unwrap().critical_core,
            CoreId(0)
        );
    }

    /// The tightest budget over every choice from the orbit `k` cuts (the
    /// cores whose rounded `R_J` row sum ties with the k-th largest), the
    /// cores above it always active.
    fn orbit_search(model: &RcThermalModel, k: usize) -> f64 {
        let r = model.junction_influence().unwrap();
        let key = |c: usize| (r.row(c).iter().sum::<f64>() / TIE_CELSIUS_PER_WATT).round();
        let mut order: Vec<usize> = (0..model.core_count()).collect();
        order.sort_by(|&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
        let boundary = key(order[k - 1]);
        let above: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&c| key(c) > boundary)
            .collect();
        let orbit: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&c| key(c) == boundary)
            .collect();
        let mut tightest = f64::INFINITY;
        for mask in 0u32..1 << orbit.len() {
            if mask.count_ones() as usize != k - above.len() {
                continue;
            }
            let picked = orbit.iter().enumerate().filter(|(j, _)| mask >> j & 1 == 1);
            let active: Vec<CoreId> = above
                .iter()
                .chain(picked.map(|(_, c)| c))
                .map(|&c| CoreId(c))
                .collect();
            tightest = tightest.min(budget(model, &active, 70.0, 0.3).unwrap().per_core_watts);
        }
        tightest
    }

    #[test]
    fn worst_case_mapping_packs_a_cut_orbit_as_tightly_as_a_search() {
        for (side, k) in [(4, 6), (8, 8), (10, 6)] {
            let fp = GridFloorplan::new(side, side).unwrap();
            let model = RcThermalModel::new(&fp, &ThermalConfig::default()).unwrap();
            let mapping = worst_case_mapping(&model, k).unwrap();
            assert_eq!(mapping.len(), k);
            let got = budget(&model, &mapping, 70.0, 0.3).unwrap().per_core_watts;
            let want = orbit_search(&model, k);
            assert!(
                (got - want).abs() <= 1e-9,
                "{side}x{side}, k = {k}: {got} W vs {want} W"
            );
        }
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
