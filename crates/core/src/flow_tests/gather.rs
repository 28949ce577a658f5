//! Unit tests of the gather flow LP and its transpose duality, see
//! [`crate::flow`].

#[cfg(test)]
mod tests {
    use steady_platform::generators::{self, figure2};
    use steady_platform::topologies::dumbbell_gather_instance;
    use steady_platform::{EdgeId, Platform};
    use steady_rational::{rat, Ratio};

    use crate::schedule::Payload;
    use crate::{CoreError, GatherProblem};

    /// Figure 2 reversed: P0 and P1 gather towards Ps on the transposed platform.
    fn figure2_gather() -> GatherProblem {
        let inst = figure2();
        let transposed = inst.platform.transpose();
        GatherProblem::new(transposed, inst.targets, inst.source).unwrap()
    }

    #[test]
    fn figure2_reversed_gather_matches_scatter_optimum() {
        // Gather on the reversed Figure 2 platform is exactly the scatter dual,
        // so its throughput equals the scatter optimum 1/2.
        let problem = figure2_gather();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(1, 2));
        sol.verify(&problem).unwrap();
    }

    #[test]
    fn transpose_duality_holds_on_figure2() {
        let problem = figure2_gather();
        let sol = problem.solve().unwrap();
        let dual = problem.dual_scatter().unwrap();
        let dual_sol = dual.solve().unwrap();
        assert_eq!(sol.throughput(), dual_sol.throughput());
    }

    #[test]
    fn star_gather_throughput() {
        // k leaves gathering to the center: the center's incoming port
        // serializes all k messages, TP = 1 / (k * c).
        for k in 1..5usize {
            let (p, center, leaves) = generators::star(k, rat(1, 2));
            let problem = GatherProblem::new(p, leaves, center).unwrap();
            let sol = problem.solve().unwrap();
            assert_eq!(*sol.throughput(), rat(2, k as i64));
            sol.verify(&problem).unwrap();
            let schedule = sol.build_schedule(&problem).unwrap();
            schedule.validate(problem.platform()).unwrap();
            assert_eq!(schedule.throughput(), rat(2, k as i64));
        }
    }

    #[test]
    fn dumbbell_gather_is_bridge_limited() {
        // 2 local + 2 remote sources, local cost 1/2, bridge cost 1: the three
        // remote/right messages plus intra-cluster traffic make the sink's
        // in-port and the bridge the contended resources.  The LP optimum must
        // never exceed the sink's in-port bound 1 / (#sources * local_cost).
        let inst = dumbbell_gather_instance(2, rat(1, 2), rat(1, 1));
        let n_sources = inst.sources.len() as i64;
        let problem = GatherProblem::from_instance(inst).unwrap();
        let sol = problem.solve().unwrap();
        sol.verify(&problem).unwrap();
        assert!(sol.throughput().is_positive());
        assert!(*sol.throughput() <= rat(2, n_sources));
        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
        assert_eq!(schedule.throughput(), *sol.throughput());
    }

    #[test]
    fn gather_schedule_delivers_every_commodity() {
        let (p, center, leaves) = generators::star(3, rat(1, 1));
        let problem = GatherProblem::new(p, leaves.clone(), center).unwrap();
        let sol = problem.solve().unwrap();
        let schedule = sol.build_schedule(&problem).unwrap();
        let expected = &Ratio::from(sol.period()) * sol.throughput();
        let totals = schedule.transfer_totals();
        for &leaf in &leaves {
            let delivered: Ratio = totals
                .iter()
                .filter(|((_, to, payload), _)| {
                    *to == center && *payload == Payload::Gather { origin: leaf }
                })
                .map(|(_, count)| count.clone())
                .sum();
            assert_eq!(delivered, expected, "leaf {leaf} under-delivered");
        }
    }

    #[test]
    fn invalid_problems_are_rejected() {
        let (p, center, leaves) = generators::star(2, rat(1, 1));
        assert!(matches!(
            GatherProblem::new(p.clone(), vec![center, leaves[0]], center),
            Err(CoreError::SourceIsTarget { .. })
        ));
        assert!(matches!(
            GatherProblem::new(p.clone(), vec![], center),
            Err(CoreError::EmptyProblem)
        ));
        assert!(matches!(
            GatherProblem::new(p.clone(), vec![leaves[0], leaves[0]], center),
            Err(CoreError::DuplicateParticipant { .. })
        ));
        // Unreachable source: a star with a one-way edge away from the center only.
        let mut q = Platform::new();
        let a = q.add_node("a", rat(1, 1));
        let b = q.add_node("b", rat(1, 1));
        let c = q.add_node("c", rat(1, 1));
        q.add_edge(a, b, rat(1, 1));
        q.add_edge(b, c, rat(1, 1));
        assert!(matches!(GatherProblem::new(q, vec![c], a), Err(CoreError::Unreachable { .. })));
    }

    #[test]
    fn lp_structure_is_reasonable() {
        let problem = figure2_gather();
        let (lp, vars) = problem.build_lp();
        // 5 edges x 2 commodities + TP.
        assert_eq!(lp.num_vars(), 11);
        assert_eq!(vars.send.len(), 10);
        let dump = lp.dump();
        assert!(dump.contains("one-port-in"));
        assert!(dump.contains("conservation"));
        // The Figure-2 sink has no outgoing edge after transposition, so the
        // no-reemit pinning only appears on platforms with symmetric links.
        let (p, center, leaves) = generators::star(2, rat(1, 1));
        let star_problem = GatherProblem::new(p, leaves, center).unwrap();
        assert!(star_problem.build_lp().0.dump().contains("no-reemit"));
    }

    #[test]
    fn solution_accessors() {
        let problem = figure2_gather();
        let sol = problem.solve().unwrap();
        assert!(!sol.flows().is_empty());
        assert_eq!(sol.flow(EdgeId(0), 99), Ratio::zero());
        assert!(sol.period() > steady_rational::BigInt::from(0i64));
    }
}
