//! Property tests for warm-started solves.
//!
//! The warm-start contract: seeding the simplex with the solved basis of a
//! *structurally identical* problem must never change the answer — the
//! throughput is bit-identical to a cold solve under arbitrary edge-cost
//! perturbations (an unusable basis silently falls back) — and on the
//! unperturbed problem the warm solve spends no more pivots than the cold
//! one (the installed basis is already optimal).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use steady_core::problem::solve_steady_warm;
use steady_core::ScatterProblem;
use steady_platform::generators::{random_connected, RandomConfig};
use steady_platform::{NodeId, Platform};
use steady_rational::rat;

/// A random connected 6-node platform, deterministic in `seed`.
fn platform_for(seed: u64) -> Platform {
    let config = RandomConfig { nodes: 6, ..RandomConfig::default() };
    random_connected(&config, &mut StdRng::seed_from_u64(seed))
}

/// Rebuilds `platform` with every edge cost scaled by a random positive
/// rational, deterministic in `seed`.
fn perturbed(platform: &Platform, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Platform::new();
    for id in platform.node_ids() {
        let node = platform.node(id);
        out.add_node(node.name.clone(), node.speed.clone());
    }
    for id in platform.edge_ids() {
        let e = platform.edge(id);
        let scale = rat(rng.gen_range(1i64..=5), rng.gen_range(1i64..=5));
        out.add_edge(e.from, e.to, &e.cost * &scale);
    }
    out
}

fn scatter_on(platform: Platform) -> ScatterProblem {
    ScatterProblem::new(platform, NodeId(0), vec![NodeId(1), NodeId(2)]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn warm_start_is_exact_and_no_slower_on_the_same_platform(
        seed in 0u64..10_000,
        drift_seed in 0u64..10_000,
    ) {
        let platform = platform_for(seed);
        let problem = scatter_on(platform.clone());
        let (cold, cold_report) = solve_steady_warm(&problem, None).expect("cold solve");
        let basis = cold_report.basis.clone().expect("cold solve yields a basis");

        // Unperturbed: the optimal basis re-installs, so the warm solve may
        // not spend more pivots than the cold one did.
        let (rewarm, rewarm_report) = solve_steady_warm(&problem, Some(&basis)).expect("re-solve");
        prop_assert_eq!(rewarm.throughput(), cold.throughput());
        prop_assert!(
            rewarm_report.iterations <= cold_report.iterations,
            "warm {} pivots > cold {}",
            rewarm_report.iterations,
            cold_report.iterations
        );

        // Perturbed edge costs: warm-started and cold solves must agree on
        // the exact rational throughput, whether or not the seed installs.
        let drifted = scatter_on(perturbed(&platform, drift_seed));
        let (drift_cold, _) = solve_steady_warm(&drifted, None).expect("drift cold solve");
        let (drift_warm, _) = solve_steady_warm(&drifted, Some(&basis)).expect("drift warm solve");
        prop_assert_eq!(drift_warm.throughput(), drift_cold.throughput());
    }
}
