//! Unit tests of the gossip flow LP `SSPA2A(G)` (§3.5), see [`crate::flow`].

#[cfg(test)]
mod tests {
    use steady_platform::{generators, Platform};
    use steady_rational::rat;

    use crate::{CoreError, GossipProblem, ScatterProblem};

    #[test]
    fn two_node_exchange() {
        // Two nodes exchanging messages over symmetric unit links: each sends
        // one message per operation, TP = 1.
        let (p, nodes) = generators::chain(2, rat(1, 1));
        let problem =
            GossipProblem::new(p, vec![nodes[0], nodes[1]], vec![nodes[0], nodes[1]]).unwrap();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(1, 1));
        sol.verify(&problem).unwrap();
        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
        assert_eq!(schedule.throughput(), rat(1, 1));
    }

    #[test]
    fn clique_all_to_all() {
        // Complete graph on 3 nodes, all-to-all with unit costs: each node must
        // emit 2 messages per operation over its single outgoing port, TP = 1/2.
        let (p, nodes) = generators::clique(3, rat(1, 1));
        let problem = GossipProblem::new(p, nodes.clone(), nodes.clone()).unwrap();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(1, 2));
        sol.verify(&problem).unwrap();
        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
    }

    #[test]
    fn scatter_is_a_special_case_of_gossip() {
        // With a single source the gossip LP reduces to the scatter LP.
        let inst = generators::figure2();
        let gossip =
            GossipProblem::new(inst.platform.clone(), vec![inst.source], inst.targets.clone())
                .unwrap();
        let gsol = gossip.solve().unwrap();
        let scatter = ScatterProblem::from_instance(inst).unwrap();
        let ssol = scatter.solve().unwrap();
        assert_eq!(gsol.throughput(), ssol.throughput());
    }

    #[test]
    fn star_gossip_bounded_by_center_ports() {
        // All leaves talk to all leaves through the center: the center's
        // incoming and outgoing ports each carry k*(k-1) messages per
        // operation (cost c), so TP = 1 / (k (k-1) c).
        let k = 3i64;
        let (p, _center, leaves) = generators::star(k as usize, rat(1, 2));
        let problem = GossipProblem::new(p, leaves.clone(), leaves.clone()).unwrap();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(2, k * (k - 1)));
        sol.verify(&problem).unwrap();
    }

    #[test]
    fn invalid_problems_rejected() {
        let (p, nodes) = generators::chain(2, rat(1, 1));
        assert!(matches!(
            GossipProblem::new(p.clone(), vec![], vec![nodes[0]]),
            Err(CoreError::EmptyProblem)
        ));
        assert!(matches!(
            GossipProblem::new(p.clone(), vec![nodes[0], nodes[0]], vec![nodes[1]]),
            Err(CoreError::DuplicateParticipant { .. })
        ));
        // Single node as both unique source and unique target -> no commodity.
        assert!(matches!(
            GossipProblem::new(p.clone(), vec![nodes[0]], vec![nodes[0]]),
            Err(CoreError::EmptyProblem)
        ));
        // Unreachable pair.
        let mut disconnected = Platform::new();
        let a = disconnected.add_node("a", rat(1, 1));
        let b = disconnected.add_node("b", rat(1, 1));
        assert!(matches!(
            GossipProblem::new(disconnected, vec![a], vec![b]),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn commodity_enumeration_skips_self_pairs() {
        let (p, nodes) = generators::clique(3, rat(1, 1));
        let problem = GossipProblem::new(p, nodes.clone(), nodes.clone()).unwrap();
        assert_eq!(problem.commodities().len(), 6);
        assert!(problem.commodities().iter().all(|(s, t)| s != t));
        assert_eq!(problem.sources().len(), 3);
        assert_eq!(problem.targets().len(), 3);
    }
}
