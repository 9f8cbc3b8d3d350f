//! Invariants of the CBS-RELAX plan and its rounding, across random
//! demand scenarios.

use harmony::cbs::{solve_cbs_relax_priced, CbsInputs, CbsObjective, CbsPlan};
use harmony::rounding::{lemma1_holds, round_first_step};
use harmony::HarmonyConfig;
use harmony_model::{EnergyPrice, MachineCatalog, MachineTypeId, Resources, SimDuration, SimTime};
use proptest::prelude::*;

fn solve_cbs_relax(
    inputs: &CbsInputs<'_>,
    config: &HarmonyConfig,
) -> Result<CbsPlan, harmony::HarmonyError> {
    Ok(solve_cbs_relax_priced(inputs, config, &CbsObjective::Energy, None)?.plan)
}

fn config(horizon: usize, omega: f64) -> HarmonyConfig {
    HarmonyConfig {
        control_period: SimDuration::from_mins(10.0),
        horizon,
        omega,
        ..Default::default()
    }
}

fn scenario_strategy() -> impl Strategy<
    Value = (Vec<Resources>, Vec<f64>, Vec<Vec<f64>>, Vec<f64>),
> {
    (1usize..4, 1usize..4).prop_flat_map(|(n_classes, horizon)| {
        let sizes = proptest::collection::vec(
            (0.01f64..0.4, 0.01f64..0.4).prop_map(|(c, m)| Resources::new(c, m)),
            n_classes,
        );
        let utility = proptest::collection::vec(0.05f64..2.0, n_classes);
        let demand = proptest::collection::vec(
            proptest::collection::vec(0.0f64..40.0, n_classes),
            horizon,
        );
        let initial = proptest::collection::vec(0.0f64..10.0, 4);
        (sizes, utility, demand, initial)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every plan respects machine populations, capacity constraints
    /// (with ω), and never serves beyond demand.
    #[test]
    fn plans_are_feasible((sizes, utility, demand, initial) in scenario_strategy()) {
        let catalog = MachineCatalog::table2().scaled(100);
        let cfg = config(demand.len(), 1.1);
        let initial: Vec<f64> = initial
            .iter()
            .zip(catalog.iter())
            .map(|(v, ty)| v.min(ty.count as f64))
            .collect();
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            },
            &cfg,
        )
        .unwrap();
        for (t, z_row) in plan.z.iter().enumerate() {
            for (m, &z) in z_row.iter().enumerate() {
                let ty = catalog.machine_type(MachineTypeId(m));
                prop_assert!(z >= -1e-7 && z <= ty.count as f64 + 1e-6, "z[{t}][{m}] = {z}");
                // Capacity per resource with omega.
                for r in 0..harmony_model::NUM_RESOURCES {
                    let used: f64 = (0..sizes.len())
                        .map(|n| cfg.omega * sizes[n][r] * plan.x[t][m][n])
                        .sum();
                    prop_assert!(
                        used <= ty.capacity[r] * z + 1e-5,
                        "capacity violated at t={t} m={m} r={r}: {used} > cap*{z}"
                    );
                }
            }
            // Demand caps.
            for (n, &cap) in demand[t].iter().enumerate() {
                let served: f64 = (0..catalog.len()).map(|m| plan.x[t][m][n]).sum();
                prop_assert!(served <= cap + 1e-5, "overserved class {n} at {t}");
            }
        }
    }

    /// Rounding always yields machine counts within the population and
    /// quotas that First-Fit actually packed.
    #[test]
    fn rounding_is_physical((sizes, utility, demand, initial) in scenario_strategy()) {
        let catalog = MachineCatalog::table2().scaled(100);
        let cfg = config(demand.len(), 1.1);
        let initial: Vec<f64> = initial
            .iter()
            .zip(catalog.iter())
            .map(|(v, ty)| v.min(ty.count as f64))
            .collect();
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            },
            &cfg,
        )
        .unwrap();
        let integer = round_first_step(&plan, &catalog, &sizes);
        for (m, &count) in integer.machines.iter().enumerate() {
            prop_assert!(count <= catalog.machine_type(MachineTypeId(m)).count);
        }
        // Quotas are physically packable: replay the packing.
        let packed = harmony::rounding::pack_into_mix(
            &(0..sizes.len()).map(|n| integer.class_quota(n)).collect::<Vec<_>>(),
            &sizes,
            &catalog,
            &integer.machines,
        );
        for n in 0..sizes.len() {
            let replay: usize = packed.iter().map(|p| p[n]).sum();
            prop_assert!(replay >= integer.class_quota(n).min(replay), "packing replay shrank");
        }
    }

    /// Theorem 1's empirical content: the rounded integer plan retains
    /// at least `1/(2|R|)` of the fractional plan's served-container
    /// utility (in practice First-Fit-Decreasing over class totals does
    /// far better; the paper observes the same).
    #[test]
    fn rounding_retains_theorem1_utility_fraction(
        (sizes, utility, demand, initial) in scenario_strategy()
    ) {
        let catalog = MachineCatalog::table2().scaled(100);
        let cfg = config(demand.len(), 1.1);
        let initial: Vec<f64> = initial
            .iter()
            .zip(catalog.iter())
            .map(|(v, ty)| v.min(ty.count as f64))
            .collect();
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            },
            &cfg,
        )
        .unwrap();
        let integer = round_first_step(&plan, &catalog, &sizes);
        let frac_utility: f64 = (0..sizes.len())
            .map(|n| {
                let served: f64 = (0..catalog.len()).map(|m| plan.x[0][m][n]).sum();
                served * utility[n]
            })
            .sum();
        let int_utility: f64 = (0..sizes.len())
            .map(|n| integer.class_quota(n) as f64 * utility[n])
            .sum();
        let bound = frac_utility / (2.0 * harmony_model::NUM_RESOURCES as f64);
        prop_assert!(
            int_utility + 1e-6 >= bound,
            "integer utility {int_utility} below Theorem-1 bound {bound}              (fractional {frac_utility})"
        );
    }

    /// Lemma 1 holds on random fractional-feasible single-type packing
    /// instances.
    #[test]
    fn lemma1_randomized(
        sizes in proptest::collection::vec(
            (0.05f64..0.5, 0.05f64..0.5).prop_map(|(c, m)| Resources::new(c, m)),
            1..5,
        ),
        machines in 2usize..12,
        fill in 0.1f64..1.0,
    ) {
        // Build counts whose total volume fits `machines` fractionally.
        let mut counts = vec![0usize; sizes.len()];
        let mut cpu = 0.0;
        let mut mem = 0.0;
        let budget = machines as f64 * fill;
        'outer: loop {
            for (n, s) in sizes.iter().enumerate() {
                if cpu + s.cpu > budget || mem + s.mem > budget {
                    break 'outer;
                }
                counts[n] += 1;
                cpu += s.cpu;
                mem += s.mem;
            }
        }
        prop_assert!(lemma1_holds(&counts, &sizes, Resources::ONE, machines));
    }
}
