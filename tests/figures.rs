//! End-to-end reproduction of the paper's worked figures (integration tests
//! spanning platform generation, LP solving, schedule construction, tree
//! extraction and simulation).

use steady_collectives::prelude::*;
use steady_core::schedule::Payload;
use steady_core::trees::verify_tree_set;
use steady_rational::Ratio;

/// Figure 2: the toy scatter platform achieves TP = 1/2 and the period-12
/// integer solution of the paper is feasible.
#[test]
fn figure2_scatter_throughput_and_schedule() {
    let problem = ScatterProblem::from_instance(figure2()).unwrap();
    let solution = problem.solve().unwrap();
    assert_eq!(*solution.throughput(), rat(1, 2));
    solution.verify(&problem).unwrap();

    // Figures 3/4: the matching decomposition yields a one-port-feasible
    // periodic schedule achieving the same throughput.
    let schedule = solution.build_schedule(&problem).unwrap();
    schedule.validate(problem.platform()).unwrap();
    assert_eq!(schedule.throughput(), rat(1, 2));
    // Communication fits the period on every port (Figure 4: the source is
    // busy 12 time-units out of 12).
    let send_times = schedule.send_time_per_node();
    for (_, t) in send_times {
        assert!(t <= schedule.period);
    }
}

/// Figure 2(b): message routes may split across Pa and Pb; the paper's exact
/// flow assignment is feasible and optimal.
#[test]
fn figure2_multiroute_optimum() {
    let problem = ScatterProblem::from_instance(figure2()).unwrap();
    let solution = problem.solve().unwrap();
    // The source's outgoing port is saturated at the optimum.
    let platform = problem.platform();
    let occupation: Ratio = platform
        .out_edges(problem.source())
        .iter()
        .map(|&e| solution.edge_occupation(&problem, e))
        .sum();
    assert_eq!(occupation, rat(1, 1));
}

/// Figure 5/6: the 3-processor reduce platform achieves TP = 1 and its
/// schedule is feasible; Figure 7: the solution decomposes into reduction
/// trees whose weights sum to TP.
#[test]
fn figure6_reduce_throughput_trees_and_schedule() {
    let problem = ReduceProblem::from_instance(figure6()).unwrap();
    let solution = problem.solve().unwrap();
    assert_eq!(*solution.throughput(), rat(1, 1));
    solution.verify(&problem).unwrap();

    let trees = solution.extract_trees(&problem).unwrap();
    verify_tree_set(&problem, &solution, &trees).unwrap();
    let total: Ratio = trees.iter().map(|t| t.weight.clone()).sum();
    assert_eq!(total, rat(1, 1));

    let schedule = solution.build_schedule(&problem).unwrap();
    schedule.validate(problem.platform()).unwrap();
    assert_eq!(schedule.throughput(), rat(1, 1));

    // The schedule only ships partial values (no scatter payloads).
    for slot in &schedule.slots {
        for t in &slot.transfers {
            assert!(matches!(t.payload, Payload::Partial { .. }));
        }
    }
    // Computation is spread across the three processors as in Figure 6(c).
    assert!(!schedule.computations.is_empty());
}

/// The paper's LPs through the revised solver's cold start: every row of
/// `SSSP(G)` / `SSR(G)` that needs an artificial has a zero right-hand side,
/// so the crash basis leaves none at a positive level, phase 1 never runs,
/// and the optimum — no artificial above zero, or the values would violate
/// their row — is the exact dense one.
#[test]
fn figure2_and_figure6_lps_start_from_the_crash_without_phase1() {
    use steady_lp::{RecordingObserver, RevisedOptions, SolveEvent, SolvePhase};

    fn check(name: &str, lp: &steady_lp::LpProblem, throughput: Ratio) {
        let mut rec = RecordingObserver::unbounded();
        let (sol, _) = steady_lp::solve_revised_report_observed::<Ratio, _>(
            lp,
            None,
            &RevisedOptions::default(),
            &mut rec,
        )
        .unwrap();
        assert_eq!(sol.phase1_iterations, 0, "{name}");
        assert_eq!(sol.objective, throughput, "{name}");
        assert_eq!(sol.objective, steady_lp::solve_exact(lp).unwrap().objective, "{name}");
        lp.check_feasible(&sol.values).unwrap();

        let events = rec.finish().events;
        assert!(
            events.iter().any(|e| matches!(
                e.event,
                SolveEvent::CrashStart { open_rows, covered } if open_rows > 0 && covered > 0
            )),
            "{name}: the crash finds zero-rhs artificial rows and covers some"
        );
        assert!(
            !events
                .iter()
                .any(|e| e.event == SolveEvent::PhaseStarted { phase: SolvePhase::Phase1 }),
            "{name}: no phase 1"
        );
    }

    let scatter = ScatterProblem::from_instance(figure2()).unwrap();
    check("figure 2 scatter", &scatter.formulate().0, rat(1, 2));
    let reduce = ReduceProblem::from_instance(figure6()).unwrap();
    check("figure 6 reduce", &reduce.formulate().0, rat(1, 1));
}

/// Figure 5: a single reduction tree on the 3-node clique is structurally valid.
#[test]
fn figure5_single_tree() {
    let problem = ReduceProblem::from_instance(figure5()).unwrap();
    let solution = problem.solve().unwrap();
    assert!(solution.throughput().is_positive());
    let trees = solution.extract_trees(&problem).unwrap();
    for wt in &trees {
        wt.tree.verify(&problem).unwrap();
        // Reducing three values always takes exactly two combining tasks.
        assert_eq!(wt.tree.num_tasks(), 2);
    }
}

/// Proposition 1 (scatter): the concrete periodic schedule with cold buffers
/// approaches the optimal operation count as the horizon grows.
#[test]
fn proposition1_scatter_asymptotic_optimality() {
    let problem = ScatterProblem::from_instance(figure2()).unwrap();
    let solution = problem.solve().unwrap();
    let schedule = solution.build_schedule(&problem).unwrap();
    let long = execute_scatter_schedule(&problem, &schedule, solution.throughput(), &rat(4800, 1));
    assert!(long.completed_operations <= long.upper_bound);
    assert!(long.efficiency() > rat(97, 100), "efficiency {}", long.efficiency());
}

/// Proposition 1 (reduce): same statement for the Figure 6 reduce schedule.
#[test]
fn proposition1_reduce_asymptotic_optimality() {
    let problem = ReduceProblem::from_instance(figure6()).unwrap();
    let solution = problem.solve().unwrap();
    let schedule = solution.build_schedule(&problem).unwrap();
    let long = execute_reduce_schedule(&problem, &schedule, solution.throughput(), &rat(2000, 1));
    assert!(long.completed_operations <= long.upper_bound);
    assert!(long.efficiency() > rat(97, 100), "efficiency {}", long.efficiency());
}

/// Proposition 4: the fixed-period approximation loses at most #trees/T_fixed.
#[test]
fn proposition4_fixed_period_loss_bound() {
    let problem = ReduceProblem::from_instance(figure6()).unwrap();
    let solution = problem.solve().unwrap();
    let trees = solution.extract_trees(&problem).unwrap();
    for t in [2i64, 5, 10, 50, 500] {
        let plan = approximate_for_period(&trees, &rat(t, 1)).unwrap();
        let loss = solution.throughput() - &plan.throughput;
        assert!(loss >= Ratio::zero());
        assert!(loss <= plan.loss_bound, "period {t}: loss {loss} > bound {}", plan.loss_bound);
    }
}

/// Section 3.5: gossip generalizes scatter — with a single source both LPs
/// give the same throughput on the Figure 2 platform.
#[test]
fn gossip_specializes_to_scatter() {
    let inst = figure2();
    let scatter = ScatterProblem::from_instance(inst.clone()).unwrap();
    let gossip =
        GossipProblem::new(inst.platform.clone(), vec![inst.source], inst.targets.clone()).unwrap();
    assert_eq!(scatter.solve().unwrap().throughput(), gossip.solve().unwrap().throughput());
}

/// The steady-state optimum never loses to the classical baselines, and on the
/// Figure 2 platform it strictly beats the direct scatter.
#[test]
fn steady_state_dominates_baselines() {
    let problem = ScatterProblem::from_instance(figure2()).unwrap();
    let optimal = problem.solve().unwrap();
    let ops = 40;
    let baseline =
        measure_pipelined_throughput(problem.platform(), &direct_scatter(&problem, ops), ops)
            .unwrap();
    assert!(baseline.throughput <= *optimal.throughput());

    let problem = ReduceProblem::from_instance(figure6()).unwrap();
    let optimal = problem.solve().unwrap();
    let flat =
        measure_pipelined_throughput(problem.platform(), &flat_tree_reduce(&problem, ops), ops)
            .unwrap();
    let bino =
        measure_pipelined_throughput(problem.platform(), &binomial_reduce(&problem, ops), ops)
            .unwrap();
    assert!(flat.throughput <= *optimal.throughput());
    assert!(bino.throughput <= *optimal.throughput());
    // The steady-state mix strictly beats the flat tree here (the flat tree
    // funnels everything through the target's ports).
    assert!(flat.throughput < *optimal.throughput());
}
