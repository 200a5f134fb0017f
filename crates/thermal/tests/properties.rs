//! Property-based tests for the RC thermal model and its solvers.

use hp_floorplan::{CoreId, GridFloorplan};
use hp_linalg::Vector;
use hp_thermal::{tsp, RcThermalModel, ThermalConfig, TransientSolver};
use proptest::prelude::*;

fn grid_dims() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=5, 2usize..=4)
}

fn power_vec(n: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(0.0..8.0f64, n).prop_map(Vector::from)
}

fn model_of(w: usize, h: usize) -> RcThermalModel {
    RcThermalModel::new(
        &GridFloorplan::new(w, h).expect("grid"),
        &ThermalConfig::default(),
    )
    .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn steady_state_above_ambient((w, h) in grid_dims(), seed in 0u64..1000) {
        let model = model_of(w, h);
        let n = w * h;
        let p = Vector::from_fn(n, |i| ((seed as usize + i) % 5) as f64);
        let t = model.steady_state(&p).unwrap();
        for &ti in &t {
            prop_assert!(ti >= 45.0 - 1e-9, "no node below ambient: {ti}");
        }
    }

    #[test]
    fn steady_state_monotone_in_power((w, h) in grid_dims(), extra in 0usize..20) {
        let model = model_of(w, h);
        let n = w * h;
        let base = Vector::constant(n, 1.0);
        let mut more = base.clone();
        more[extra % n] += 2.0;
        let t_base = model.steady_state(&base).unwrap();
        let t_more = model.steady_state(&more).unwrap();
        for i in 0..model.node_count() {
            prop_assert!(t_more[i] >= t_base[i] - 1e-9);
        }
    }

    #[test]
    fn transient_converges_to_steady((w, h) in grid_dims(), p in power_vec(25)) {
        let model = model_of(w, h);
        let n = w * h;
        let p = Vector::from_fn(n, |i| p[i % p.len()]);
        let solver = TransientSolver::new(&model).unwrap();
        let t = solver.step(&model, &model.ambient_state(), &p, 1e5).unwrap();
        let ss = model.steady_state(&p).unwrap();
        prop_assert!((&t - &ss).norm_inf() < 1e-5);
    }

    #[test]
    fn transient_semigroup((w, h) in grid_dims(), p in power_vec(25), dt in 1e-5..5e-3f64) {
        let model = model_of(w, h);
        let n = w * h;
        let p = Vector::from_fn(n, |i| p[i % p.len()]);
        let solver = TransientSolver::new(&model).unwrap();
        let t0 = model.ambient_state();
        let one = solver.step(&model, &t0, &p, 2.0 * dt).unwrap();
        let half = solver.step(&model, &t0, &p, dt).unwrap();
        let two = solver.step(&model, &half, &p, dt).unwrap();
        prop_assert!((&one - &two).norm_inf() < 1e-8);
    }

    #[test]
    fn transient_bounded_by_endpoints((w, h) in grid_dims(), p in power_vec(25)) {
        // Heating from ambient under constant power can never exceed the
        // steady state of that power map.
        let model = model_of(w, h);
        let n = w * h;
        let p = Vector::from_fn(n, |i| p[i % p.len()]);
        let solver = TransientSolver::new(&model).unwrap();
        let ss = model.steady_state(&p).unwrap();
        let mut t = model.ambient_state();
        for _ in 0..20 {
            t = solver.step(&model, &t, &p, 1e-3).unwrap();
            for i in 0..model.node_count() {
                prop_assert!(t[i] <= ss[i] + 1e-6, "node {i}: {} > {}", t[i], ss[i]);
            }
        }
    }

    #[test]
    fn tsp_budget_is_safe_and_tight((w, h) in grid_dims(), mask in 1u32..1000) {
        let model = model_of(w, h);
        let n = w * h;
        let active: Vec<CoreId> = (0..n).filter(|i| (mask >> (i % 10)) & 1 == 1).map(CoreId).collect();
        prop_assume!(!active.is_empty());
        let b = tsp::budget(&model, &active, 70.0, 0.3).unwrap();
        prop_assert!(b.per_core_watts > 0.0);
        let peak_at = |watts: f64| {
            let mut p = Vector::constant(n, 0.3);
            for &c in &active {
                p[c.index()] = watts;
            }
            model.core_temperatures(&model.steady_state(&p).unwrap()).max()
        };
        // Safe: running at the budget stays at or below the threshold.
        prop_assert!(peak_at(b.per_core_watts) <= 70.0 + 1e-6);
        // Tight: 5% above the budget violates it.
        prop_assert!(peak_at(b.per_core_watts * 1.05) > 70.0);
    }

    #[test]
    fn tsp_budget_antitone_in_active_set((w, h) in grid_dims()) {
        // Adding cores to the active set can only shrink the budget.
        let model = model_of(w, h);
        let n = w * h;
        for k in 1..n {
            let smaller: Vec<CoreId> = (0..k).map(CoreId).collect();
            let larger: Vec<CoreId> = (0..=k).map(CoreId).collect();
            let b_small = tsp::budget(&model, &smaller, 70.0, 0.3).unwrap();
            let b_large = tsp::budget(&model, &larger, 70.0, 0.3).unwrap();
            prop_assert!(b_large.per_core_watts <= b_small.per_core_watts + 1e-9);
        }
    }
}
