//! Unit tests of the scatter flow LP `SSSP(G)` (§3), see [`crate::flow`].

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use steady_platform::generators::{self, figure2};
    use steady_platform::{EdgeId, NodeId};
    use steady_rational::{rat, Ratio};

    use crate::schedule::Payload;
    use crate::{CoreError, ScatterProblem, ScatterSolution};

    fn figure2_problem() -> ScatterProblem {
        ScatterProblem::from_instance(figure2()).unwrap()
    }

    #[test]
    fn figure2_throughput_is_one_half() {
        let problem = figure2_problem();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(1, 2));
        sol.verify(&problem).unwrap();
    }

    #[test]
    fn figure2_period_divides_twelve() {
        // The paper uses period 12; the minimal period must divide it.
        let problem = figure2_problem();
        let sol = problem.solve().unwrap();
        let period = sol.period();
        let twelve = steady_rational::BigInt::from(12i64);
        let (_, rem) = twelve.div_rem(&period);
        assert!(rem.is_zero(), "period {period} does not divide 12");
    }

    #[test]
    fn figure2_source_port_is_saturated() {
        // The optimum is limited by the source's outgoing port: occupation 1.
        let problem = figure2_problem();
        let sol = problem.solve().unwrap();
        let platform = problem.platform();
        let source = problem.source();
        let total: Ratio =
            platform.out_edges(source).iter().map(|&e| sol.edge_occupation(&problem, e)).sum();
        assert_eq!(total, rat(1, 1));
    }

    #[test]
    fn figure2_schedule_is_valid_and_achieves_throughput() {
        let problem = figure2_problem();
        let sol = problem.solve().unwrap();
        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
        assert_eq!(schedule.throughput(), rat(1, 2));
        // One scatter every two time-units: TP * T operations per period.
        let expected_ops = &Ratio::from(sol.period()) * sol.throughput();
        assert_eq!(schedule.operations_per_period, expected_ops);
        // Every message type reaches its target with the right multiplicity.
        let totals = schedule.transfer_totals();
        let mut delivered_p0 = Ratio::zero();
        let mut delivered_p1 = Ratio::zero();
        for ((_, to, payload), count) in &totals {
            if let Payload::Scatter { destination } = payload {
                if to == destination {
                    if destination.index() == 3 {
                        delivered_p0 += count;
                    } else if destination.index() == 4 {
                        delivered_p1 += count;
                    }
                }
            }
        }
        assert_eq!(delivered_p0, expected_ops);
        assert_eq!(delivered_p1, expected_ops);
    }

    #[test]
    fn figure2_paper_solution_is_feasible_with_same_throughput() {
        // The per-edge rates printed on Figure 2(b) (for a period of 12):
        // Ps->Pa: 3 m0, Ps->Pb: 3 m0 + 6 m1, Pa->P0: 3 m0, Pb->P0: 3 m0,
        // Pb->P1: 6 m1.  They form a feasible steady-state solution with the
        // same optimal throughput 1/2, using both routes towards P0.  The LP
        // may return a different (equally optimal) vertex, so we verify the
        // paper's solution explicitly rather than requiring the solver to
        // reproduce that exact vertex.
        let problem = figure2_problem();
        let platform = problem.platform();
        let edge = |a: usize, b: usize| platform.edge_between(NodeId(a), NodeId(b)).unwrap();
        let mut flows = BTreeMap::new();
        flows.insert((edge(0, 1), 0usize), rat(3, 12));
        flows.insert((edge(0, 2), 0), rat(3, 12));
        flows.insert((edge(0, 2), 1), rat(6, 12));
        flows.insert((edge(1, 3), 0), rat(3, 12));
        flows.insert((edge(2, 3), 0), rat(3, 12));
        flows.insert((edge(2, 4), 1), rat(6, 12));
        let paper = ScatterSolution::from_flows(rat(1, 2), flows);
        paper.verify(&problem).unwrap();
        // And it is optimal: the LP optimum matches.
        let sol = problem.solve().unwrap();
        assert_eq!(sol.throughput(), paper.throughput());
        // The paper's occupations (Figure 2(c), scaled to a period of 12).
        assert_eq!(paper.edge_occupation(&problem, edge(0, 1)) * rat(12, 1), rat(3, 1));
        assert_eq!(paper.edge_occupation(&problem, edge(0, 2)) * rat(12, 1), rat(9, 1));
        assert_eq!(paper.edge_occupation(&problem, edge(1, 3)) * rat(12, 1), rat(2, 1));
        assert_eq!(paper.edge_occupation(&problem, edge(2, 3)) * rat(12, 1), rat(4, 1));
        assert_eq!(paper.edge_occupation(&problem, edge(2, 4)) * rat(12, 1), rat(8, 1));
        // The paper's schedule (Figure 4) can be rebuilt from that solution.
        let schedule = paper.build_schedule(&problem).unwrap();
        schedule.validate(platform).unwrap();
        assert_eq!(schedule.period, rat(4, 1));
        assert_eq!(schedule.throughput(), rat(1, 2));
    }

    #[test]
    fn star_scatter_throughput() {
        // Star with k identical leaves and cost c: the source port serializes
        // all k messages, so TP = 1 / (k * c).
        for k in 1..5 {
            let (p, center, leaves) = generators::star(k, rat(1, 2));
            let problem = ScatterProblem::new(p, center, leaves).unwrap();
            let sol = problem.solve().unwrap();
            assert_eq!(*sol.throughput(), rat(2, k as i64));
            sol.verify(&problem).unwrap();
            let schedule = sol.build_schedule(&problem).unwrap();
            schedule.validate(problem.platform()).unwrap();
            assert_eq!(schedule.throughput(), rat(2, k as i64));
        }
    }

    #[test]
    fn heterogeneous_star_scatter() {
        // Leaves with costs 1 and 1/2: TP = 1 / (1 + 1/2) = 2/3.
        let (p, center, leaves) = generators::heterogeneous_star(&[rat(1, 1), rat(1, 2)]);
        let problem = ScatterProblem::new(p, center, leaves).unwrap();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(2, 3));
    }

    #[test]
    fn chain_scatter_bounded_by_first_hop() {
        // On a chain source -> a -> b, messages for both targets cross the
        // first link: TP = 1/2 with unit costs.
        let (p, nodes) = generators::chain(3, rat(1, 1));
        let problem = ScatterProblem::new(p, nodes[0], vec![nodes[1], nodes[2]]).unwrap();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(1, 2));
        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
    }

    #[test]
    fn invalid_problems_are_rejected() {
        let inst = figure2();
        // Source in targets.
        assert!(matches!(
            ScatterProblem::new(inst.platform.clone(), inst.source, vec![inst.source]),
            Err(CoreError::SourceIsTarget { .. })
        ));
        // Empty targets.
        assert!(matches!(
            ScatterProblem::new(inst.platform.clone(), inst.source, vec![]),
            Err(CoreError::EmptyProblem)
        ));
        // Duplicate target.
        assert!(matches!(
            ScatterProblem::new(
                inst.platform.clone(),
                inst.source,
                vec![inst.targets[0], inst.targets[0]]
            ),
            Err(CoreError::DuplicateParticipant { .. })
        ));
        // Unreachable target: P1 cannot reach Ps (edges point away from Ps).
        assert!(matches!(
            ScatterProblem::new(inst.platform.clone(), inst.targets[1], vec![inst.source]),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn lp_structure_is_reasonable() {
        let problem = figure2_problem();
        let (lp, vars) = problem.build_lp();
        // 5 edges x 2 commodities + TP.
        assert_eq!(lp.num_vars(), 11);
        assert_eq!(vars.send.len(), 10);
        assert!(lp.num_constraints() > 5);
        let dump = lp.dump();
        assert!(dump.contains("one-port-out"));
        assert!(dump.contains("conservation"));
        assert!(dump.contains("throughput"));
    }

    #[test]
    fn solution_flow_accessors() {
        let problem = figure2_problem();
        let sol = problem.solve().unwrap();
        assert!(!sol.flows().is_empty());
        // Unknown edge/commodity combinations read as zero flow.
        assert_eq!(sol.flow(EdgeId(0), 57), Ratio::zero());
    }
}
