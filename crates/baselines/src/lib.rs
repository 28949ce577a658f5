//! Baseline collective algorithms for comparison with the steady-state schedules.
//!
//! The paper motivates steady-state scheduling by contrast with classical
//! single-collective algorithms that route everything along fixed trees or
//! direct paths.  This crate implements those baselines on the same platform
//! model so the benchmark harness can report "who wins and by how much":
//!
//! * [`direct_scatter`] — the source sends every message along a shortest
//!   path (store-and-forward), one operation after another; pipelining only
//!   happens implicitly through resource availability.
//! * [`flat_tree_reduce`] — every participant ships its value to the target
//!   along a shortest path and the target folds them left-to-right (the order
//!   matters: the reduction operator is not commutative).
//! * [`binomial_reduce`] — the classical binomial combining tree over the
//!   participant ranks, followed by a final transfer to the target; adjacent
//!   ranges are combined so associativity suffices.
//! * [`binomial_scatter`] — recursive halving of the target list: the source
//!   ships the second half's bundle to a pivot which redistributes it.
//! * [`direct_gather`] — every source ships its message straight to the sink.
//! * [`chain_reduce`] — the pipeline reduce along decreasing ranks, ending
//!   with a transfer from rank 0 to the target.
//! * [`direct_gossip`] — every (source, target) pair exchanges its message
//!   along a shortest path.
//!
//! Every baseline produces a [`Dag`] executed by `steady-sim`'s
//! resource-constrained engine; [`measure_pipelined_throughput`] runs `M`
//! back-to-back operations and reports `M / makespan`, the baseline's
//! sustained throughput, directly comparable with the LP optimum `TP(G)`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use steady_core::reduce::ReduceProblem;
use steady_core::{GatherProblem, GossipProblem, ScatterProblem};
use steady_platform::{NodeId, Platform};
use steady_rational::Ratio;
use steady_sim::{simulate, Dag, OpId, SimError};

/// Throughput measurement of a pipelined baseline run.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Number of back-to-back collective operations executed.
    pub operations: usize,
    /// Time at which the last operation completed.
    pub makespan: Ratio,
    /// Sustained throughput estimate `operations / makespan`.
    pub throughput: Ratio,
}

/// Builds and runs a baseline DAG, reporting its sustained throughput.
pub fn measure_pipelined_throughput(
    platform: &Platform,
    dag: &Dag,
    operations: usize,
) -> Result<BaselineReport, SimError> {
    let result = simulate(platform, dag)?;
    let throughput = if result.makespan.is_positive() {
        &Ratio::from(operations) / &result.makespan
    } else {
        Ratio::zero()
    };
    Ok(BaselineReport { operations, makespan: result.makespan, throughput })
}

/// Appends the store-and-forward relay of one message along the shortest path
/// `from -> to`, returning the final op of the chain.
fn relay_message(
    platform: &Platform,
    dag: &mut Dag,
    from: NodeId,
    to: NodeId,
    size: &Ratio,
    deps: Vec<OpId>,
) -> OpId {
    if from == to {
        return dag.milestone(deps);
    }
    let path =
        platform.shortest_path(from, to).unwrap_or_else(|| panic!("no path from {from} to {to}"));
    let mut last_deps = deps;
    let mut last = None;
    for e in path {
        let edge = platform.edge(e);
        let duration = size * &edge.cost;
        let op = dag.transfer(edge.from, edge.to, duration, last_deps.clone());
        last_deps = vec![op];
        last = Some(op);
    }
    last.expect("path is non-empty")
}

/// Direct (shortest-path) scatter baseline: `operations` consecutive scatter
/// operations, each sending one unit-size message from the source to every
/// target along a shortest path, in target order.
pub fn direct_scatter(problem: &ScatterProblem, operations: usize) -> Dag {
    let platform = problem.platform();
    let mut dag = Dag::new();
    let mut previous_op_end: Option<OpId> = None;
    for _ in 0..operations {
        let mut deliveries = Vec::new();
        for &t in problem.targets() {
            // Each operation's emissions start after the previous operation's
            // emissions were issued (classical non-pipelined usage would even
            // wait for completion; resource constraints already serialize the
            // source port, so this is the friendlier variant).
            let deps = previous_op_end.iter().copied().collect();
            let delivered =
                relay_message(platform, &mut dag, problem.source(), t, &Ratio::one(), deps);
            deliveries.push(delivered);
        }
        previous_op_end = Some(dag.milestone(deliveries));
    }
    dag
}

/// Flat-tree reduce baseline: every participant ships its value to the target,
/// which folds the values left-to-right (`((v0 ⊕ v1) ⊕ v2) ⊕ ...`).
pub fn flat_tree_reduce(problem: &ReduceProblem, operations: usize) -> Dag {
    let platform = problem.platform();
    let target = problem.target();
    let task_time =
        problem.task_time(target).expect("flat-tree baseline requires a computing target");
    let mut dag = Dag::new();
    let mut previous_op_end: Option<OpId> = None;
    let n = problem.last_index();

    for _ in 0..operations {
        let start_deps: Vec<OpId> = previous_op_end.iter().copied().collect();
        // Ship every value to the target.
        let mut arrival = Vec::new();
        for (i, &p) in problem.participants().iter().enumerate() {
            let size = problem.size((i, i));
            let op = relay_message(platform, &mut dag, p, target, &size, start_deps.clone());
            arrival.push(op);
        }
        // Left-to-right fold on the target.
        let mut prev = arrival[0];
        for &op in &arrival[1..=n] {
            let deps = vec![prev, op];
            prev = dag.compute(target, task_time.clone(), deps);
        }
        previous_op_end = Some(dag.milestone(vec![prev]));
    }
    dag
}

/// Binomial-tree reduce baseline: `⌈log2⌉` rounds of pairwise combining of
/// adjacent index ranges (rank `j` receives from rank `j + 2^r` when
/// `j mod 2^{r+1} == 0`), then the final value moves from rank 0 to the target.
pub fn binomial_reduce(problem: &ReduceProblem, operations: usize) -> Dag {
    let platform = problem.platform();
    let participants = problem.participants();
    let n_participants = participants.len();
    let mut dag = Dag::new();
    let mut previous_op_end: Option<OpId> = None;

    for _ in 0..operations {
        let start_deps: Vec<OpId> = previous_op_end.iter().copied().collect();
        // ready[i] = op after which participant i's current partial value is
        // available; range[i] = (lo, hi) indices covered by that value.
        let mut ready: Vec<OpId> =
            (0..n_participants).map(|_| dag.milestone(start_deps.clone())).collect();
        let mut range: Vec<(usize, usize)> = (0..n_participants).map(|i| (i, i)).collect();

        let mut step = 1usize;
        while step < n_participants {
            for j in (0..n_participants).step_by(2 * step) {
                let partner = j + step;
                if partner >= n_participants {
                    continue;
                }
                // partner ships its current partial value to j, then j combines.
                let interval = range[partner];
                let size = problem.size(interval);
                let arrive = relay_message(
                    platform,
                    &mut dag,
                    participants[partner],
                    participants[j],
                    &size,
                    vec![ready[partner]],
                );
                let task_time =
                    problem.task_time(participants[j]).expect("participants can compute");
                let combine = dag.compute(participants[j], task_time, vec![ready[j], arrive]);
                ready[j] = combine;
                range[j] = (range[j].0, range[partner].1);
            }
            step *= 2;
        }
        // Ship the complete result from rank 0 to the target.
        let final_interval = range[0];
        let size = problem.size(final_interval);
        let done = relay_message(
            platform,
            &mut dag,
            participants[0],
            problem.target(),
            &size,
            vec![ready[0]],
        );
        previous_op_end = Some(dag.milestone(vec![done]));
    }
    dag
}

/// Binomial (recursive-halving) scatter baseline: the source hands the
/// messages of the second half of the target list to the first target of that
/// half, which recursively redistributes them; the first half is handled the
/// same way by the source.  Message hops relay along shortest paths.
pub fn binomial_scatter(problem: &ScatterProblem, operations: usize) -> Dag {
    let platform = problem.platform();
    let mut dag = Dag::new();
    let mut previous_op_end: Option<OpId> = None;

    // Recursively scatter the messages of `targets` currently held by `holder`.
    fn scatter_range(
        platform: &Platform,
        dag: &mut Dag,
        holder: NodeId,
        targets: &[NodeId],
        ready: OpId,
        deliveries: &mut Vec<OpId>,
    ) {
        match targets {
            [] => {}
            [only] => {
                let done = if *only == holder {
                    dag.milestone(vec![ready])
                } else {
                    relay_range_message(platform, dag, holder, *only, targets.len(), vec![ready])
                };
                deliveries.push(done);
            }
            _ => {
                let mid = targets.len() / 2;
                let (first, second) = targets.split_at(mid);
                // Ship the whole bundle for `second` to its first member.
                let pivot = second[0];
                let bundle_arrival =
                    relay_range_message(platform, dag, holder, pivot, second.len(), vec![ready]);
                scatter_range(platform, dag, pivot, second, bundle_arrival, deliveries);
                scatter_range(platform, dag, holder, first, ready, deliveries);
            }
        }
    }

    for _ in 0..operations {
        let deps: Vec<OpId> = previous_op_end.iter().copied().collect();
        let start = dag.milestone(deps);
        let mut deliveries = Vec::new();
        scatter_range(
            platform,
            &mut dag,
            problem.source(),
            problem.targets(),
            start,
            &mut deliveries,
        );
        previous_op_end = Some(dag.milestone(deliveries));
    }
    dag
}

/// Relays a bundle of `count` unit-size messages from `from` to `to` along a
/// shortest path (the bundle travels as one block of size `count`).
fn relay_range_message(
    platform: &Platform,
    dag: &mut Dag,
    from: NodeId,
    to: NodeId,
    count: usize,
    deps: Vec<OpId>,
) -> OpId {
    let size = Ratio::from(count);
    relay_message(platform, dag, from, to, &size, deps)
}

/// Direct gather baseline: every source ships its message to the sink along a
/// shortest path, operation after operation.
pub fn direct_gather(problem: &GatherProblem, operations: usize) -> Dag {
    let platform = problem.platform();
    let mut dag = Dag::new();
    let mut previous_op_end: Option<OpId> = None;
    for _ in 0..operations {
        let deps: Vec<OpId> = previous_op_end.iter().copied().collect();
        let mut deliveries = Vec::new();
        for &s in problem.sources() {
            let done =
                relay_message(platform, &mut dag, s, problem.sink(), &Ratio::one(), deps.clone());
            deliveries.push(done);
        }
        previous_op_end = Some(dag.milestone(deliveries));
    }
    dag
}

/// Chain (pipeline) reduce baseline: the last rank ships its value to the
/// previous rank, which combines and forwards the growing prefix towards rank
/// 0; rank 0 finally ships the complete result to the target.  Respects the
/// non-commutative reduction order.
pub fn chain_reduce(problem: &ReduceProblem, operations: usize) -> Dag {
    let platform = problem.platform();
    let participants = problem.participants();
    let n = problem.last_index();
    let mut dag = Dag::new();
    let mut previous_op_end: Option<OpId> = None;

    for _ in 0..operations {
        let deps: Vec<OpId> = previous_op_end.iter().copied().collect();
        let start = dag.milestone(deps);
        // ready = op after which the partial value v[i, N] is available on rank i.
        let mut ready = start;
        for i in (0..n).rev() {
            // Rank i+1 ships v[i+1, N] to rank i, which combines with v[i, i].
            let size = problem.size((i + 1, n));
            let arrive = relay_message(
                platform,
                &mut dag,
                participants[i + 1],
                participants[i],
                &size,
                vec![ready],
            );
            let task_time = problem.task_time(participants[i]).expect("participants can compute");
            ready = dag.compute(participants[i], task_time, vec![arrive]);
        }
        // Ship v[0, N] from rank 0 to the target.
        let size = problem.size((0, n));
        let done = relay_message(
            platform,
            &mut dag,
            participants[0],
            problem.target(),
            &size,
            vec![ready],
        );
        previous_op_end = Some(dag.milestone(vec![done]));
    }
    dag
}

/// Direct gossip baseline: every (source, target) pair exchanges its message
/// along a shortest path, operation after operation.
pub fn direct_gossip(problem: &GossipProblem, operations: usize) -> Dag {
    let platform = problem.platform();
    let mut dag = Dag::new();
    let mut previous_op_end: Option<OpId> = None;
    for _ in 0..operations {
        let deps: Vec<OpId> = previous_op_end.iter().copied().collect();
        let mut deliveries = Vec::new();
        for &s in problem.sources() {
            for &t in problem.targets() {
                if s == t {
                    continue;
                }
                let done = relay_message(platform, &mut dag, s, t, &Ratio::one(), deps.clone());
                deliveries.push(done);
            }
        }
        previous_op_end = Some(dag.milestone(deliveries));
    }
    dag
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_core::{GatherProblem, GossipProblem};
    use steady_platform::generators::{self, figure2, figure6};
    use steady_rational::rat;

    #[test]
    fn direct_scatter_on_figure2_is_slower_than_optimal() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let optimal = problem.solve().unwrap();
        let dag = direct_scatter(&problem, 20);
        let report = measure_pipelined_throughput(problem.platform(), &dag, 20).unwrap();
        assert!(report.throughput.is_positive());
        assert!(
            report.throughput <= *optimal.throughput(),
            "baseline {} beats the LP optimum {}",
            report.throughput,
            optimal.throughput()
        );
    }

    #[test]
    fn direct_scatter_star_matches_theory() {
        // On a star the direct scatter is actually optimal: the source port is
        // the only bottleneck either way.
        let (p, center, leaves) = generators::star(3, rat(1, 1));
        let problem = ScatterProblem::new(p, center, leaves).unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 30;
        let dag = direct_scatter(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        // Throughput approaches 1/3 as the number of operations grows.
        let gap = optimal.throughput() - &report.throughput;
        assert!(gap >= Ratio::zero());
        assert!(gap < rat(1, 20), "gap {gap} too large");
    }

    #[test]
    fn flat_tree_reduce_feasible_and_dominated() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 20;
        let dag = flat_tree_reduce(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        assert!(report.throughput.is_positive());
        assert!(report.throughput <= *optimal.throughput());
    }

    #[test]
    fn binomial_reduce_feasible_and_dominated() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 20;
        let dag = binomial_reduce(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        assert!(report.throughput.is_positive());
        assert!(report.throughput <= *optimal.throughput());
    }

    #[test]
    fn binomial_reduce_on_chain_platform() {
        let (p, nodes) = generators::chain(4, rat(1, 1));
        let problem = ReduceProblem::new(
            p,
            vec![nodes[0], nodes[1], nodes[2], nodes[3]],
            nodes[0],
            rat(1, 1),
            rat(1, 1),
        )
        .unwrap();
        let dag = binomial_reduce(&problem, 5);
        let report = measure_pipelined_throughput(problem.platform(), &dag, 5).unwrap();
        assert!(report.throughput.is_positive());
        let optimal = problem.solve().unwrap();
        assert!(report.throughput <= *optimal.throughput());
    }

    #[test]
    fn throughput_improves_with_more_operations() {
        // Pipelining amortizes the start-up latency: throughput is
        // non-decreasing in the number of back-to-back operations.
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let few = measure_pipelined_throughput(problem.platform(), &direct_scatter(&problem, 2), 2)
            .unwrap();
        let many =
            measure_pipelined_throughput(problem.platform(), &direct_scatter(&problem, 40), 40)
                .unwrap();
        assert!(many.throughput >= few.throughput);
    }

    #[test]
    fn single_operation_reports_finite_makespan() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let dag = flat_tree_reduce(&problem, 1);
        let report = measure_pipelined_throughput(problem.platform(), &dag, 1).unwrap();
        assert!(report.makespan.is_positive());
        assert_eq!(report.operations, 1);
    }

    #[test]
    fn binomial_scatter_feasible_and_dominated() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 20;
        let dag = binomial_scatter(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        assert!(report.throughput.is_positive());
        assert!(report.throughput <= *optimal.throughput());
    }

    #[test]
    fn binomial_scatter_on_chain_uses_relaying() {
        // On a chain the binomial scatter forwards the far targets' bundle to
        // the middle node, exactly the behaviour the recursion is meant to show.
        let (p, nodes) = generators::chain(5, rat(1, 1));
        let problem = ScatterProblem::new(p, nodes[0], nodes[1..].to_vec()).unwrap();
        let ops = 10;
        let dag = binomial_scatter(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        assert!(report.throughput.is_positive());
        let optimal = problem.solve().unwrap();
        assert!(report.throughput <= *optimal.throughput());
    }

    #[test]
    fn direct_gather_star_matches_theory() {
        // Gathering k messages over a star serializes the center's in-port:
        // the sustained throughput tends to 1 / (k * c) = the LP optimum.
        let (p, center, leaves) = generators::star(3, rat(1, 1));
        let problem = GatherProblem::new(p, leaves, center).unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 30;
        let dag = direct_gather(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        assert!(report.throughput.is_positive());
        assert!(report.throughput <= *optimal.throughput());
        let gap = optimal.throughput() - &report.throughput;
        assert!(gap < rat(1, 20), "gap {gap} too large");
    }

    #[test]
    fn chain_reduce_feasible_and_dominated() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 20;
        let dag = chain_reduce(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        assert!(report.throughput.is_positive());
        assert!(report.throughput <= *optimal.throughput());
    }

    #[test]
    fn chain_reduce_on_chain_platform_is_latency_bound() {
        // On a 4-node chain the pipeline reduce crosses every link once per
        // operation and serializes the combines; its throughput stays positive
        // but clearly below the steady-state optimum.
        let (p, nodes) = generators::chain(4, rat(1, 1));
        let problem = ReduceProblem::new(
            p,
            vec![nodes[0], nodes[1], nodes[2], nodes[3]],
            nodes[0],
            rat(1, 1),
            rat(1, 1),
        )
        .unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 15;
        let dag = chain_reduce(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        assert!(report.throughput.is_positive());
        assert!(report.throughput <= *optimal.throughput());
    }

    #[test]
    fn direct_gossip_feasible_and_dominated() {
        let (p, nodes) = generators::clique(3, rat(1, 1));
        let problem = GossipProblem::new(p, nodes.clone(), nodes).unwrap();
        let optimal = problem.solve().unwrap();
        let ops = 15;
        let dag = direct_gossip(&problem, ops);
        let report = measure_pipelined_throughput(problem.platform(), &dag, ops).unwrap();
        assert!(report.throughput.is_positive());
        assert!(report.throughput <= *optimal.throughput());
    }
}
