//! Whole solves on the limb route of the exact arithmetic.
//!
//! The paper's data are small integer ratios, so every other test and every
//! benchmark workload stays on `Ratio`'s machine-word path.  Multiplying every
//! cost of a paper figure by one `K > 2^64` leaves the problem the same up to
//! the time unit — the optimal throughput is exactly `TP / K` — but puts a
//! two-limb factor into every coefficient, so formulation, both simplex
//! routes, certification and verification run on promoted values, and the
//! intermediate results that cancel `K` demote again mid-solve.

use steady_collectives::prelude::*;
use steady_lp::{check_optimal, solve_exact_auto};
use steady_platform::generators::{ReduceInstance, ScatterInstance};
use steady_service::solve_query;

/// `2^65 + 3`, parsed from decimal like a cost read from a platform file.
fn k() -> Ratio {
    let k: Ratio = "36893488147419103235".parse().unwrap();
    assert_eq!(k.numer().to_u64(), None, "K needs a second limb");
    assert_eq!(*k.numer(), BigInt::from(2u64).pow(65) + BigInt::from(3u64));
    k
}

/// `platform` with every link cost multiplied by `k`.
fn scaled(platform: &Platform, k: &Ratio) -> Platform {
    let mut out = Platform::new();
    for id in platform.node_ids() {
        let node = platform.node(id);
        out.add_node(node.name.clone(), node.speed.clone());
    }
    for id in platform.edge_ids() {
        let edge = platform.edge(id);
        out.add_edge(edge.from, edge.to, &edge.cost * k);
    }
    out
}

/// `solve_exact_auto` on `problem`'s LP returns `expected` with values and
/// duals that prove it.
fn assert_certified<P: SteadyProblem>(problem: &P, expected: &Ratio) {
    let (lp, _) = problem.formulate();
    let solution = solve_exact_auto(&lp).unwrap();
    assert_eq!(solution.objective, *expected, "{}", P::KIND);
    assert_eq!(
        check_optimal(&lp, &solution.values, &solution.duals).as_ref(),
        Ok(expected),
        "{}: the returned primal/dual pair is its own proof",
        P::KIND
    );
}

#[test]
fn figure2_scatter_with_two_limb_costs_is_exactly_one_half_over_k() {
    let k = k();
    let expected = rat(1, 2) / &k;
    assert_eq!(expected.denom().to_u64(), None, "the answer itself is off the small-word path");

    let figure = figure2();
    let platform = scaled(&figure.platform, &k);
    let query = Query {
        platform: platform.clone(),
        collective: Collective::Scatter { source: figure.source, targets: figure.targets.clone() },
    };
    assert_eq!(solve_query(&query, false).unwrap().throughput, expected);

    let problem = ScatterProblem::from_instance(ScatterInstance { platform, ..figure }).unwrap();
    let solution = problem.solve().unwrap();
    assert_eq!(*solution.throughput(), expected);
    solution.verify(&problem).unwrap();
    assert_certified(&problem, &expected);
}

#[test]
fn figure6_reduce_with_two_limb_costs_is_exactly_one_over_k() {
    let k = k();
    let expected = rat(1, 1) / &k;

    let figure = figure6();
    let platform = scaled(&figure.platform, &k);
    let task_cost = &figure.task_cost * &k;
    let query = Query {
        platform: platform.clone(),
        collective: Collective::Reduce {
            participants: figure.participants.clone(),
            target: figure.target,
            size: figure.message_size.clone(),
            task_cost: task_cost.clone(),
        },
    };
    assert_eq!(solve_query(&query, false).unwrap().throughput, expected);

    let problem =
        ReduceProblem::from_instance(ReduceInstance { platform, task_cost, ..figure }).unwrap();
    let solution = problem.solve().unwrap();
    assert_eq!(*solution.throughput(), expected);
    solution.verify(&problem).unwrap();
    assert_certified(&problem, &expected);
}
