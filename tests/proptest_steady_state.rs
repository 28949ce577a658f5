//! Cross-crate property-based tests: on random heterogeneous platforms, the
//! whole pipeline (LP -> exact solution -> matchings -> schedule -> simulation)
//! maintains its invariants.

use proptest::prelude::*;
use steady_collectives::prelude::*;
use steady_core::trees::verify_tree_set;
use steady_platform::generators::{self, RandomConfig};
use steady_rational::Ratio;

fn random_platform(seed: u64, nodes: usize, extra: f64) -> Platform {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let config = RandomConfig {
        nodes,
        extra_link_probability: extra,
        bandwidth_range: (1, 6),
        speed_range: (1, 8),
    };
    generators::random_connected(&config, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scatter: the exact solution satisfies every constraint, the schedule is
    /// one-port feasible, achieves the LP throughput, and the simulator never
    /// beats the Lemma-1 bound.
    #[test]
    fn scatter_pipeline_invariants(seed in 0u64..5000, nodes in 3usize..7, targets in 1usize..4) {
        let platform = random_platform(seed, nodes, 0.3);
        let all: Vec<NodeId> = platform.node_ids().collect();
        let source = all[0];
        let targets: Vec<NodeId> = all.iter().copied().skip(1).take(targets).collect();
        prop_assume!(!targets.is_empty());

        let problem = ScatterProblem::new(platform, source, targets).unwrap();
        let solution = problem.solve().unwrap();
        prop_assert!(solution.throughput().is_positive());
        solution.verify(&problem).unwrap();

        let schedule = solution.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
        prop_assert_eq!(schedule.throughput(), solution.throughput().clone());

        let horizon = &Ratio::from(40u64) * &schedule.period;
        let report = execute_scatter_schedule(&problem, &schedule, solution.throughput(), &horizon);
        prop_assert!(report.completed_operations <= report.upper_bound);
        // After 40 periods the pipeline is warm on these small graphs.
        prop_assert!(report.efficiency() > rat(1, 2),
            "efficiency {} too low (seed {seed})", report.efficiency());
    }

    /// Gossip: the solution verifies, the schedule is one-port feasible and
    /// achieves TP, and the LP agrees with the scatter for one source and
    /// with the gather for one target.
    #[test]
    fn gossip_pipeline_invariants(
        seed in 0u64..5000,
        nodes in 3usize..7,
        num_sources in 1usize..4,
        num_targets in 1usize..4,
        source_offset in 0usize..6,
        target_offset in 0usize..6,
    ) {
        let platform = random_platform(seed, nodes, 0.3);
        let all: Vec<NodeId> = platform.node_ids().collect();
        let pick = |offset: usize, count: usize| -> Vec<NodeId> {
            (0..count).map(|i| all[(offset + i) % nodes]).collect()
        };
        let sources = pick(source_offset, num_sources);
        let targets = pick(target_offset, num_targets);
        prop_assume!(sources.iter().any(|s| targets.iter().any(|t| s != t)));

        let problem = GossipProblem::new(platform.clone(), sources.clone(), targets.clone()).unwrap();
        let solution = problem.solve().unwrap();
        prop_assert!(solution.throughput().is_positive());
        solution.verify(&problem).unwrap();

        let schedule = solution.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
        prop_assert_eq!(schedule.throughput(), solution.throughput().clone());

        if let [source] = sources[..] {
            let scatter_targets = targets.iter().copied().filter(|&t| t != source).collect();
            let scatter = ScatterProblem::new(platform.clone(), source, scatter_targets).unwrap();
            prop_assert_eq!(scatter.solve().unwrap().throughput(), solution.throughput());
        }
        if let [sink] = targets[..] {
            let gather_sources = sources.iter().copied().filter(|&s| s != sink).collect();
            let gather = GatherProblem::new(platform, gather_sources, sink).unwrap();
            prop_assert_eq!(gather.solve().unwrap().throughput(), solution.throughput());
        }
    }

    /// Reduce: solution verifies, trees decompose exactly TP, schedules are
    /// feasible, and the simulation respects the upper bound.
    #[test]
    fn reduce_pipeline_invariants(seed in 0u64..5000, nodes in 3usize..6, participants in 2usize..4) {
        let platform = random_platform(seed, nodes, 0.3);
        let compute: Vec<NodeId> = platform.compute_nodes();
        prop_assume!(compute.len() >= participants);
        let participants: Vec<NodeId> = compute.iter().copied().take(participants).collect();
        let target = participants[0];

        let problem = ReduceProblem::new(platform, participants, target, rat(1, 1), rat(1, 1)).unwrap();
        let solution = problem.solve().unwrap();
        prop_assert!(solution.throughput().is_positive());
        solution.verify(&problem).unwrap();

        let trees = solution.extract_trees(&problem).unwrap();
        verify_tree_set(&problem, &solution, &trees).unwrap();

        let schedule = solution.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
        prop_assert_eq!(schedule.throughput(), solution.throughput().clone());

        let horizon = &Ratio::from(30u64) * &schedule.period;
        let report = execute_reduce_schedule(&problem, &schedule, solution.throughput(), &horizon);
        prop_assert!(report.completed_operations <= report.upper_bound);
    }

    /// The fixed-period approximation never exceeds the optimum and respects
    /// its own loss bound on random instances.
    #[test]
    fn fixed_period_bound_holds(seed in 0u64..5000, period in 1i64..200) {
        let platform = random_platform(seed, 4, 0.4);
        let compute: Vec<NodeId> = platform.compute_nodes();
        prop_assume!(compute.len() >= 3);
        let participants = vec![compute[0], compute[1], compute[2]];
        let problem = ReduceProblem::new(platform, participants, compute[0], rat(1, 1), rat(1, 1)).unwrap();
        let solution = problem.solve().unwrap();
        let trees = solution.extract_trees(&problem).unwrap();
        let plan = approximate_for_period(&trees, &rat(period, 1)).unwrap();
        prop_assert!(plan.throughput <= *solution.throughput());
        let loss = solution.throughput() - &plan.throughput;
        prop_assert!(loss <= plan.loss_bound);
    }

    /// Baselines never beat the LP optimum (sanity check of Lemma 1 applied to
    /// a very different scheduling strategy).
    #[test]
    fn baselines_respect_upper_bound(seed in 0u64..5000) {
        let platform = random_platform(seed, 5, 0.4);
        let all: Vec<NodeId> = platform.node_ids().collect();
        let problem = ScatterProblem::new(
            platform,
            all[0],
            all.iter().copied().skip(1).take(3).collect(),
        ).unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 15;
        let report = measure_pipelined_throughput(
            problem.platform(),
            &direct_scatter(&problem, ops),
            ops,
        ).unwrap();
        prop_assert!(report.throughput <= *optimal.throughput(),
            "baseline {} beats TP {}", report.throughput, optimal.throughput());
    }
}
