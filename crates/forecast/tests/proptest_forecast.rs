//! Property-based verification of the forecaster's universal claims.
//!
//! The forecaster certifies a [`ClassFate::WillHold`] by exhaustively
//! probing the drift envelope; these tests re-verify that claim through the
//! *independent* machinery it predicts for: actual random walks of the
//! [`DriftModel`] and the drift-triage ladder.  A `WillHold` class must
//! install its cached basis with **zero pivots** on every walked platform,
//! and every candidate's expected rung must match what a real solve does.

use proptest::prelude::*;
use steady_core::problem::SteadyProblem;
use steady_core::ScatterProblem;
use steady_drift::{solve_steady_triaged, DriftConfig, DriftModel, Triage};
use steady_forecast::{ClassFate, ForecastConfig, Forecaster, PredictedTriage};
use steady_lp::basis_still_optimal;
use steady_platform::{NodeId, Platform};
use steady_rational::rat;

#[derive(Debug, Clone)]
struct Scenario {
    /// Leaf link costs (1 to 2 leaves keeps the envelope exhaustively
    /// enumerable: each leaf contributes two directed edges).
    costs: Vec<(i64, i64)>,
    /// Walk laziness.
    move_probability: f64,
    /// Walk seed.
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (proptest::collection::vec((1i64..5, 1i64..6), 1..3), 0usize..4, 0u64..1_000).prop_map(
        |(costs, p_idx, seed)| Scenario {
            costs,
            move_probability: [0.1, 0.3, 0.6, 1.0][p_idx],
            seed,
        },
    )
}

fn star(costs: &[(i64, i64)]) -> (Platform, NodeId, Vec<NodeId>) {
    let costs: Vec<_> = costs.iter().map(|&(n, d)| rat(n, d)).collect();
    steady_platform::generators::heterogeneous_star(&costs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn will_hold_classes_install_with_zero_pivots_along_real_walks(
        scenario in scenario_strategy(),
    ) {
        let (platform, center, leaves) = star(&scenario.costs);
        let config = DriftConfig {
            move_probability: scenario.move_probability,
            ..DriftConfig::default()
        };
        let mut model = DriftModel::new(platform, config, scenario.seed);

        let problem = ScatterProblem::new(model.current(), center, leaves.clone()).unwrap();
        let (cold, report) = solve_steady_triaged(&problem, None).unwrap();
        let basis = report.basis.expect("cold solve yields a basis");
        prop_assert!(cold.throughput().is_positive());

        let forecaster = Forecaster::new(ForecastConfig {
            horizon: 1,
            max_candidates: usize::MAX,
            max_states: 1 << 14,
        });
        let plan = forecaster
            .forecast(&model, |p| ScatterProblem::new(p, center, leaves.clone()), &basis)
            .unwrap();
        prop_assert!(plan.exhaustive, "1-step envelopes of 1-2 leaf stars are enumerable");
        prop_assert!((plan.coverage - 1.0).abs() < 1e-9);
        prop_assert_eq!(plan.surviving + plan.exiting, plan.examined);

        // Every candidate's expected rung must agree with the independent
        // zero-pivot install probe on a freshly formulated LP.
        for candidate in &plan.candidates {
            let rebuilt =
                ScatterProblem::new(candidate.platform.clone(), center, leaves.clone()).unwrap();
            let (lp, _) = rebuilt.formulate();
            prop_assert_eq!(
                candidate.expected == PredictedTriage::InRange,
                basis_still_optimal(&lp, &basis),
                "expected rung disagrees with the install probe"
            );
        }

        // The universal WillHold claim, re-verified through real walks: any
        // one-step move of the model must triage InRange with zero pivots
        // and return the exact cold optimum.
        if plan.fate == ClassFate::WillHold {
            for _ in 0..4 {
                let drifted = model.step();
                let walked =
                    ScatterProblem::new(drifted, center, leaves.clone()).unwrap();
                let (lp, _) = walked.formulate();
                prop_assert!(
                    basis_still_optimal(&lp, &basis),
                    "a WillHold class must install with zero pivots everywhere"
                );
                let (warm, warm_report) =
                    solve_steady_triaged(&walked, Some(&basis)).unwrap();
                prop_assert_eq!(warm_report.triage, Triage::InRange);
                prop_assert_eq!(warm_report.iterations, 0);
                let (re, _) = solve_steady_triaged(&walked, None).unwrap();
                prop_assert_eq!(warm.throughput(), re.throughput());
                // Re-anchor: each verification step walks from the previous
                // state, staying inside the 1-step envelope of *its* origin
                // only if we re-forecast — so fold the new state in as the
                // next origin and stop once the class is no longer certain.
                let replan = forecaster
                    .forecast(&model, |p| ScatterProblem::new(p, center, leaves.clone()), &basis)
                    .unwrap();
                if replan.fate != ClassFate::WillHold {
                    break;
                }
            }
        }
    }

    #[test]
    fn plans_rank_by_probability_and_exclude_the_current_state(
        scenario in scenario_strategy(),
    ) {
        let (platform, center, leaves) = star(&scenario.costs);
        let config = DriftConfig {
            move_probability: scenario.move_probability,
            ..DriftConfig::default()
        };
        let model = DriftModel::new(platform, config, scenario.seed);
        let problem = ScatterProblem::new(model.current(), center, leaves.clone()).unwrap();
        let (_, report) = solve_steady_triaged(&problem, None).unwrap();
        let basis = report.basis.unwrap();

        let plan = Forecaster::new(ForecastConfig { horizon: 1, ..ForecastConfig::default() })
            .forecast(&model, |p| ScatterProblem::new(p, center, leaves.clone()), &basis)
            .unwrap();
        for pair in plan.candidates.windows(2) {
            prop_assert!(pair[0].probability >= pair[1].probability);
        }
        for candidate in &plan.candidates {
            prop_assert!(candidate.probability > 0.0);
            prop_assert_ne!(&candidate.walkers, model.walkers());
        }
    }
}
