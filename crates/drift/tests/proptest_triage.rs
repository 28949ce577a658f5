//! Property tests for drift triage.
//!
//! The triage contract: whatever rung of the reuse ladder answers — in-range
//! re-pricing, dual-simplex repair, warm or cold resolve — the throughput is
//! the bit-identical exact rational a from-scratch solve produces, and an
//! `InRange` verdict really does mean the old basis is still optimal (here
//! re-checked by an independent cold solve on every occurrence).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use steady_core::ScatterProblem;
use steady_drift::{solve_steady_triaged, DriftConfig, DriftModel, DriftStats, Triage};
use steady_platform::generators::{random_connected, RandomConfig};
use steady_platform::{NodeId, Platform};

/// A random connected 5-node platform, deterministic in `seed`.
fn platform_for(seed: u64) -> Platform {
    let config = RandomConfig { nodes: 5, ..RandomConfig::default() };
    random_connected(&config, &mut StdRng::seed_from_u64(seed))
}

fn scatter_on(platform: Platform) -> ScatterProblem {
    ScatterProblem::new(platform, NodeId(0), vec![NodeId(1), NodeId(2)]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_triage_rung_is_exact_along_a_random_walk(
        seed in 0u64..10_000,
        walk_seed in 0u64..10_000,
    ) {
        let mut model = DriftModel::new(platform_for(seed), DriftConfig::default(), walk_seed);
        let mut basis = None;
        let mut stats = DriftStats::default();
        for _ in 0..6 {
            let problem = scatter_on(model.step());
            let (triaged, report) = solve_steady_triaged(&problem, basis.as_ref()).unwrap();
            // Independent cold re-solve: exact equality on every rung, and
            // in particular every InRange verdict is re-verified optimal.
            let (cold, cold_report) = solve_steady_triaged(&problem, None).unwrap();
            prop_assert_eq!(cold_report.triage, Triage::ResolveCold);
            prop_assert_eq!(
                triaged.throughput(),
                cold.throughput(),
                "rung {} diverged from the cold solve",
                report.triage.kind_name()
            );
            if report.triage == Triage::InRange {
                prop_assert_eq!(report.iterations, 0, "InRange must spend zero pivots");
            }
            stats.record(&report);
            basis = report.basis;
        }
        prop_assert!(basis.is_some(), "every solve must hand the next one a basis");
        prop_assert_eq!(stats.total(), 6);
    }

    #[test]
    fn in_range_holds_for_the_unperturbed_problem(seed in 0u64..10_000) {
        // The degenerate walk (same platform twice) must always re-price.
        let problem = scatter_on(platform_for(seed));
        let (cold, report) = solve_steady_triaged(&problem, None).unwrap();
        let basis = report.basis.expect("cold solve yields a basis");
        let (again, report) = solve_steady_triaged(&problem, Some(&basis)).unwrap();
        prop_assert_eq!(report.triage, Triage::InRange);
        prop_assert!(report.had_prior);
        prop_assert_eq!(again.throughput(), cold.throughput());
    }
}
