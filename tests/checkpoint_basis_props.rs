//! Checkpointed warm-start bases survive serialization and backend
//! changes: `Solution::basis()` must round-trip through the
//! `OnlineState.lp_basis` checkpoint encoding bit-identically and
//! re-install on either simplex backend, and the two backends must
//! agree on CBS-shaped instances — the workload the solver exists for —
//! warm and cold, to 1e-6 relative.

use harmony::cbs::{solve_cbs_relax_priced, CbsInputs, CbsObjective, CbsSolve};
use harmony::online::OnlineState;
use harmony::{HarmonyConfig, SolverBackend, WarmOutcome};
use harmony_model::{EnergyPrice, MachineCatalog, Resources, SimDuration, SimTime};
use proptest::prelude::*;
use proptest::TestCaseError;

fn solve_cbs_relax_warm(
    inputs: &CbsInputs<'_>,
    config: &HarmonyConfig,
    warm: Option<&harmony_lp::Basis>,
) -> Result<CbsSolve, harmony::HarmonyError> {
    solve_cbs_relax_priced(inputs, config, &CbsObjective::Energy, warm)
}

const REL_TOL: f64 = 1e-6;

fn config(horizon: usize, backend: SolverBackend) -> HarmonyConfig {
    HarmonyConfig {
        control_period: SimDuration::from_mins(10.0),
        horizon,
        lp_backend: backend,
        ..Default::default()
    }
}

/// Wraps a basis the way the daemon checkpoints it and pushes it through
/// the full serde path (value tree → JSON text → value tree → state).
fn roundtrip_via_checkpoint(basis: &harmony_lp::Basis) -> harmony_lp::Basis {
    let state = OnlineState {
        ticks: 7,
        errors: 0,
        histories: vec![vec![0.25, 0.5]],
        last_plan: None,
        pending_events: Vec::new(),
        lp_basis: Some(basis.clone()),
        cost_dollars: 1.25,
    };
    let text = serde_json::to_string(&state).expect("checkpoint state serializes");
    let back: OnlineState = serde_json::from_str(&text).expect("checkpoint state deserializes");
    assert_eq!(back, state, "checkpoint round-trip must be bit-identical");
    back.lp_basis.expect("basis survives the round-trip")
}

fn objectives_agree(a: f64, b: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        (a - b).abs() <= REL_TOL * (1.0 + a.abs().max(b.abs())),
        "objectives disagree: {a} vs {b}"
    );
    Ok(())
}

/// `(sizes, utility, demand, demand2, initial)` — the raw ingredients
/// for a pair of CBS scenarios sharing one class catalog.
type Scenario = (Vec<Resources>, Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<f64>);

/// Random CBS scenarios with two demand periods of identical structure
/// (strictly positive demand keeps the LP's shape constant, so the
/// second period's solve is warm-startable from the first's basis).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (1usize..4, 1usize..4).prop_flat_map(|(n_classes, horizon)| {
        let sizes = proptest::collection::vec(
            (0.01f64..0.4, 0.01f64..0.4).prop_map(|(c, m)| Resources::new(c, m)),
            n_classes,
        );
        let utility = proptest::collection::vec(0.05f64..2.0, n_classes);
        let demand = proptest::collection::vec(
            proptest::collection::vec(0.1f64..40.0, n_classes),
            horizon,
        );
        let demand2 = proptest::collection::vec(
            proptest::collection::vec(0.1f64..40.0, n_classes),
            horizon,
        );
        let initial = proptest::collection::vec(0.0f64..10.0, 4);
        (sizes, utility, demand, demand2, initial)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full deployment story in one property: solve a CBS instance
    /// on both backends (they agree), checkpoint the sparse basis
    /// through `OnlineState` serde (bit-identical), then warm-start the
    /// next period's solve from the restored basis on *both* backends —
    /// what a daemon restarted under a different `--lp-backend` does —
    /// and land on the cold objective as a warm-start hit each time.
    #[test]
    fn cbs_basis_roundtrips_and_warm_starts_both_backends(
        (sizes, utility, demand, demand2, initial) in scenario_strategy()
    ) {
        let catalog = MachineCatalog::table2().scaled(100);
        let initial: Vec<f64> = initial
            .iter()
            .zip(catalog.iter())
            .map(|(v, ty)| v.min(ty.count as f64))
            .collect();
        let price = EnergyPrice::default();
        fn make<'a>(
            catalog: &'a MachineCatalog,
            sizes: &'a [Resources],
            utility: &'a [f64],
            demand: &'a [Vec<f64>],
            initial: &'a [f64],
            price: &'a EnergyPrice,
        ) -> CbsInputs<'a> {
            CbsInputs {
                catalog,
                container_sizes: sizes,
                utility_per_hour: utility,
                demand,
                initial_active: initial,
                price,
                now: SimTime::ZERO,
            }
        }
        let horizon = demand.len();
        let sparse_cfg = config(horizon, SolverBackend::Sparse);
        let dense_cfg = config(horizon, SolverBackend::Dense);

        let sparse = solve_cbs_relax_warm(
            &make(&catalog, &sizes, &utility, &demand, &initial, &price),
            &sparse_cfg,
            None,
        )
        .unwrap();
        let dense = solve_cbs_relax_warm(
            &make(&catalog, &sizes, &utility, &demand, &initial, &price),
            &dense_cfg,
            None,
        )
        .unwrap();
        objectives_agree(sparse.plan.objective, dense.plan.objective)?;
        prop_assert_eq!(sparse.warm_outcome, WarmOutcome::Cold);
        prop_assert!(sparse.lp_vars > 0 && sparse.lp_constraints > 0);
        prop_assert_eq!(sparse.lp_vars, dense.lp_vars);
        prop_assert_eq!(sparse.lp_constraints, dense.lp_constraints);

        let restored = roundtrip_via_checkpoint(&sparse.basis);
        prop_assert_eq!(&restored, &sparse.basis);

        // Next period: same structure, moved demand. Warm from the
        // restored checkpoint basis under each backend.
        let cold2 = solve_cbs_relax_warm(
            &make(&catalog, &sizes, &utility, &demand2, &initial, &price),
            &dense_cfg,
            None,
        )
        .unwrap();
        for cfg in [&sparse_cfg, &dense_cfg] {
            let warm = solve_cbs_relax_warm(
                &make(&catalog, &sizes, &utility, &demand2, &initial, &price),
                cfg,
                Some(&restored),
            )
            .unwrap();
            objectives_agree(warm.plan.objective, cold2.plan.objective)?;
            prop_assert_eq!(warm.warm_outcome, WarmOutcome::Hit);
            prop_assert!(warm.warm_started);
        }
    }
}

/// A basis that kept an artificial variable (redundant equality rows)
/// checkpoints fine but must be *rejected* on re-install — by both
/// backends, classified as a structural fallback, still reaching the
/// optimum.
#[test]
fn redundant_row_basis_survives_checkpoint_but_is_rejected_by_both_backends() {
    use harmony_lp::{Problem, Sense, SimplexOptions};

    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
    // The duplicated equality row leaves one artificial basic at zero.
    p.add_eq(vec![(x, 1.0), (y, 1.0)], 4.0);
    p.add_eq(vec![(x, 1.0), (y, 1.0)], 4.0);
    let first = p.solve().unwrap();
    let n_cols = first.basis().num_cols();
    assert!(
        first.basis().columns().iter().any(|&j| j >= n_cols),
        "test premise: an artificial stayed basic"
    );

    let restored = roundtrip_via_checkpoint(first.basis());
    assert_eq!(&restored, first.basis());

    for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
        let options = SimplexOptions { backend, ..SimplexOptions::default() };
        let warm = p.solve_warm_with(&options, Some(&restored)).unwrap();
        assert_eq!(warm.warm_outcome(), WarmOutcome::StructuralFallback, "{backend:?}");
        assert!(!warm.warm_started());
        assert!((warm.objective() - first.objective()).abs() < 1e-9);
    }
}
