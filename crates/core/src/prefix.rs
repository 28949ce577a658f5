//! Series of parallel-prefix operations (the extension suggested in the
//! paper's conclusion).
//!
//! In a parallel-prefix (scan) operation every participant `P_i` owns a value
//! `v_i` and must obtain the prefix `v[0, i] = v_0 ⊕ ... ⊕ v_i` of the
//! associative, non-commutative operator `⊕`.  The *series* version pipelines
//! a large number of such scans and maximizes the common steady-state
//! throughput `TP`.
//!
//! # Formulation
//!
//! The LP `SSP(G)` used here tags every partial value with the **rank it is
//! destined to**: for every destination rank `d ∈ {1, …, N}` there is an
//! independent copy of the reduce flow of §4.2 restricted to the participants
//! `0..=d` with target `P_d`, and all the copies share the physical one-port
//! and compute capacities.  Rank 0 needs no work (it already owns `v[0,0]`).
//!
//! This *no-sharing* formulation does not model the reuse of a partial value
//! across destinations (the same `v[0,k]` instance feeding both rank `k` and
//! rank `k+1`), so the computed throughput is a **feasible lower bound** on
//! the true optimal prefix throughput; conversely the reduce LP of any single
//! rank is a relaxation, so `min_d TP_reduce(0..=d → P_d)` is an upper bound
//! ([`PrefixProblem::upper_bound`]).  Tests bracket the solution between the
//! two; on small platforms the bounds frequently coincide.
//!
//! Schedules are built per destination by re-using the reduction-tree
//! extraction of §4.3–4.4 on each rank's sub-flow, then aggregating all the
//! trees of all ranks into one weighted-matching decomposition.

use std::collections::BTreeMap;

use steady_lp::{LinearExpr, LpProblem, Sense, VarId};
use steady_platform::{EdgeId, NodeId, Platform, PrefixInstance};
use steady_rational::{lcm_of_denominators, BigInt, Ratio};

use crate::error::CoreError;
use crate::reduce::{Interval, ReduceProblem, ReduceSolution, Task};
use crate::schedule::{pack_trees, PeriodicSchedule};
use crate::trees::WeightedTree;

/// A pipelined parallel-prefix problem.
#[derive(Debug, Clone)]
pub struct PrefixProblem {
    platform: Platform,
    participants: Vec<NodeId>,
    message_size: Ratio,
    task_cost: Ratio,
}

/// Mapping from LP variables back to prefix quantities.
#[derive(Debug, Clone)]
pub struct PrefixVars {
    /// `send[(edge, destination_rank, interval)]` variables.
    pub send: BTreeMap<(EdgeId, usize, Interval), VarId>,
    /// `cons[(node, destination_rank, task)]` variables.
    pub cons: BTreeMap<(NodeId, usize, Task), VarId>,
    /// The throughput variable `TP`.
    pub throughput: VarId,
}

/// Exact steady-state solution of a parallel-prefix problem.
#[derive(Debug, Clone)]
pub struct PrefixSolution {
    throughput: Ratio,
    sends: BTreeMap<(EdgeId, usize, Interval), Ratio>,
    tasks: BTreeMap<(NodeId, usize, Task), Ratio>,
}

impl PrefixProblem {
    /// Builds and validates a parallel-prefix problem.
    pub fn new(
        platform: Platform,
        participants: Vec<NodeId>,
        message_size: Ratio,
        task_cost: Ratio,
    ) -> Result<Self, CoreError> {
        platform.validate()?;
        if participants.len() < 2 {
            return Err(CoreError::EmptyProblem);
        }
        let mut seen = Vec::new();
        for &p in &participants {
            if seen.contains(&p) {
                return Err(CoreError::DuplicateParticipant { node: p });
            }
            seen.push(p);
            if !platform.node(p).can_compute() {
                return Err(CoreError::NotAComputeNode { node: p });
            }
        }
        // Every rank k must be able to feed every later rank d (k < d).
        for d in 1..participants.len() {
            for k in 0..d {
                if !platform.is_reachable(participants[k], participants[d]) {
                    return Err(CoreError::Unreachable { node: participants[k] });
                }
            }
        }
        Ok(PrefixProblem { platform, participants, message_size, task_cost })
    }

    /// Builds a problem from a generated [`PrefixInstance`].
    pub fn from_instance(instance: PrefixInstance) -> Result<Self, CoreError> {
        PrefixProblem::new(
            instance.platform,
            instance.participants,
            instance.message_size,
            instance.task_cost,
        )
    }

    /// The platform graph.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Participants in rank order.
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// Largest rank `N`.
    pub fn last_index(&self) -> usize {
        self.participants.len() - 1
    }

    /// Size of every partial value.
    pub fn message_size(&self) -> &Ratio {
        &self.message_size
    }

    /// Cost of every combining task.
    pub fn task_cost(&self) -> &Ratio {
        &self.task_cost
    }

    /// The reduce sub-problem of destination rank `d`: participants `0..=d`,
    /// target `P_d`.  Panics if `d` is 0 or out of range.
    pub fn sub_problem(&self, d: usize) -> Result<ReduceProblem, CoreError> {
        assert!(d >= 1 && d <= self.last_index(), "destination rank out of range");
        ReduceProblem::new(
            self.platform.clone(),
            self.participants[..=d].to_vec(),
            self.participants[d],
            self.message_size.clone(),
            self.task_cost.clone(),
        )
    }

    /// Upper bound on the optimal prefix throughput: serving rank `d` alone is
    /// a relaxation of the prefix, so `min_d TP_reduce(0..=d → P_d)` dominates
    /// any prefix schedule.
    pub fn upper_bound(&self) -> Result<Ratio, CoreError> {
        let mut best: Option<Ratio> = None;
        for d in 1..=self.last_index() {
            let tp = self.sub_problem(d)?.solve()?.throughput().clone();
            best = Some(match best {
                None => tp,
                Some(b) => b.min(tp),
            });
        }
        Ok(best.expect("at least one destination rank"))
    }

    fn intervals_for(&self, d: usize) -> Vec<Interval> {
        let mut out = Vec::new();
        for k in 0..=d {
            for m in k..=d {
                out.push((k, m));
            }
        }
        out
    }

    fn tasks_for(&self, d: usize) -> Vec<Task> {
        let mut out = Vec::new();
        for k in 0..=d {
            for m in (k + 1)..=d {
                for l in k..m {
                    out.push((k, l, m));
                }
            }
        }
        out
    }

    fn task_time(&self, node: NodeId) -> Option<Ratio> {
        let speed = &self.platform.node(node).speed;
        if speed.is_positive() {
            Some(&self.task_cost / speed)
        } else {
            None
        }
    }

    /// Whether the conservation law applies to `(node, destination d, interval)`.
    fn conservation_applies(&self, node: NodeId, d: usize, interval: Interval) -> bool {
        let (k, m) = interval;
        // Initial values are free on their owner (for every destination).
        if k == m && self.participants.get(k) == Some(&node) {
            return false;
        }
        // The destination consumes its own prefix value.
        !(node == self.participants[d] && interval == (0, d))
    }

    /// Builds the `SSP(G)` linear program.
    pub fn build_lp(&self) -> (LpProblem, PrefixVars) {
        let mut lp = LpProblem::maximize();
        let platform = &self.platform;
        let n = self.last_index();

        let mut send = BTreeMap::new();
        let mut cons = BTreeMap::new();
        for d in 1..=n {
            for e in platform.edge_ids() {
                let edge = platform.edge(e);
                for &iv in &self.intervals_for(d) {
                    let v = lp.add_var(format!(
                        "send[{}->{},d{},v[{},{}]]",
                        edge.from, edge.to, d, iv.0, iv.1
                    ));
                    send.insert((e, d, iv), v);
                }
            }
            for node in platform.node_ids() {
                if !platform.node(node).can_compute() {
                    continue;
                }
                for &t in &self.tasks_for(d) {
                    let v = lp.add_var(format!("cons[{node},d{d},T[{},{},{}]]", t.0, t.1, t.2));
                    cons.insert((node, d, t), v);
                }
            }
        }
        let throughput = lp.add_var("TP");
        lp.set_objective(throughput, Ratio::one());

        // Shared one-port constraints.
        for node in platform.node_ids() {
            let mut out_expr = LinearExpr::new();
            for &e in platform.out_edges(node) {
                let cost = platform.edge(e).cost.clone();
                for d in 1..=n {
                    for &iv in &self.intervals_for(d) {
                        out_expr.add_term(send[&(e, d, iv)], &self.message_size * &cost);
                    }
                }
            }
            if !out_expr.is_empty() {
                lp.add_constraint(
                    format!("one-port-out[{node}]"),
                    out_expr,
                    Sense::Le,
                    Ratio::one(),
                );
            }
            let mut in_expr = LinearExpr::new();
            for &e in platform.in_edges(node) {
                let cost = platform.edge(e).cost.clone();
                for d in 1..=n {
                    for &iv in &self.intervals_for(d) {
                        in_expr.add_term(send[&(e, d, iv)], &self.message_size * &cost);
                    }
                }
            }
            if !in_expr.is_empty() {
                lp.add_constraint(format!("one-port-in[{node}]"), in_expr, Sense::Le, Ratio::one());
            }
        }

        // Shared compute-occupation constraints.
        for node in platform.node_ids() {
            let Some(task_time) = self.task_time(node) else { continue };
            let mut expr = LinearExpr::new();
            for d in 1..=n {
                for &t in &self.tasks_for(d) {
                    expr.add_term(cons[&(node, d, t)], task_time.clone());
                }
            }
            if !expr.is_empty() {
                lp.add_constraint(format!("compute[{node}]"), expr, Sense::Le, Ratio::one());
            }
        }

        // Per-destination conservation law (the reduce constraint (10) with
        // last index d).
        for d in 1..=n {
            for node in platform.node_ids() {
                let computes = platform.node(node).can_compute();
                for &(k, m) in &self.intervals_for(d) {
                    if !self.conservation_applies(node, d, (k, m)) {
                        continue;
                    }
                    let mut expr = LinearExpr::new();
                    for &e in platform.in_edges(node) {
                        expr.add_term(send[&(e, d, (k, m))], Ratio::one());
                    }
                    if computes {
                        for l in k..m {
                            expr.add_term(cons[&(node, d, (k, l, m))], Ratio::one());
                        }
                    }
                    for &e in platform.out_edges(node) {
                        expr.add_term(send[&(e, d, (k, m))], -Ratio::one());
                    }
                    if computes {
                        for next in (m + 1)..=d {
                            expr.add_term(cons[&(node, d, (k, m, next))], -Ratio::one());
                        }
                        for prev in 0..k {
                            expr.add_term(cons[&(node, d, (prev, k - 1, m))], -Ratio::one());
                        }
                    }
                    if !expr.is_empty() {
                        lp.add_constraint(
                            format!("conservation[{node},d{d},v[{k},{m}]]"),
                            expr,
                            Sense::Eq,
                            Ratio::zero(),
                        );
                    }
                }
            }
        }

        // No re-emission of a delivered prefix value by its destination (same
        // WLOG restriction as for scatter/reduce).
        for d in 1..=n {
            let dest = self.participants[d];
            for &e in platform.out_edges(dest) {
                lp.add_constraint(
                    format!("no-reemit[d{d}]"),
                    LinearExpr::var(send[&(e, d, (0, d))]),
                    Sense::Eq,
                    Ratio::zero(),
                );
            }
        }

        // Throughput: every destination rank receives (or computes in place)
        // TP prefix values per time-unit.
        for d in 1..=n {
            let dest = self.participants[d];
            let mut expr = LinearExpr::new();
            for &e in platform.in_edges(dest) {
                expr.add_term(send[&(e, d, (0, d))], Ratio::one());
            }
            if platform.node(dest).can_compute() {
                for l in 0..d {
                    expr.add_term(cons[&(dest, d, (0, l, d))], Ratio::one());
                }
            }
            expr.add_term(throughput, -Ratio::one());
            lp.add_constraint(format!("throughput[d{d}]"), expr, Sense::Eq, Ratio::zero());
        }

        (lp, PrefixVars { send, cons, throughput })
    }

    /// Solves `SSP(G)` exactly.
    pub fn solve(&self) -> Result<PrefixSolution, CoreError> {
        crate::problem::solve_steady(self)
    }
}

impl crate::problem::SteadyProblem for PrefixProblem {
    type Vars = PrefixVars;
    type Solution = PrefixSolution;
    const KIND: &'static str = "prefix";

    fn formulate(&self) -> (LpProblem, PrefixVars) {
        self.build_lp()
    }

    fn interpret(&self, vars: &PrefixVars, values: &[Ratio]) -> PrefixSolution {
        PrefixSolution {
            throughput: values[vars.throughput.index()].clone(),
            sends: crate::problem::positive_values(&vars.send, values),
            tasks: crate::problem::positive_values(&vars.cons, values),
        }
    }
}

impl PrefixSolution {
    /// Steady-state throughput (prefix operations per time-unit) of this
    /// feasible solution.
    pub fn throughput(&self) -> &Ratio {
        &self.throughput
    }

    /// All non-zero send rates, keyed by `(edge, destination rank, interval)`.
    pub fn sends(&self) -> &BTreeMap<(EdgeId, usize, Interval), Ratio> {
        &self.sends
    }

    /// All non-zero task rates, keyed by `(node, destination rank, task)`.
    pub fn tasks(&self) -> &BTreeMap<(NodeId, usize, Task), Ratio> {
        &self.tasks
    }

    /// The flow serving destination rank `d`, viewed as a reduce solution of
    /// the sub-problem `0..=d → P_d`.
    pub fn rank_solution(&self, d: usize) -> ReduceSolution {
        let sends = self
            .sends
            .iter()
            .filter(|((_, dd, _), _)| *dd == d)
            .map(|((e, _, iv), v)| ((*e, *iv), v.clone()))
            .collect();
        let tasks = self
            .tasks
            .iter()
            .filter(|((_, dd, _), _)| *dd == d)
            .map(|((node, _, t), v)| ((*node, *t), v.clone()))
            .collect();
        ReduceSolution::from_rates(self.throughput.clone(), sends, tasks)
    }

    /// The minimal integer period: LCM of the denominators of all rates.
    pub fn period(&self) -> BigInt {
        let mut values: Vec<Ratio> = self.sends.values().cloned().collect();
        values.extend(self.tasks.values().cloned());
        values.push(self.throughput.clone());
        lcm_of_denominators(&values)
    }

    /// Exhaustively re-checks the solution: every rank's sub-flow is a valid
    /// reduce solution of its sub-problem, and the aggregated port/compute
    /// occupations respect the shared one-port and full-overlap capacities.
    pub fn verify(&self, problem: &PrefixProblem) -> Result<(), String> {
        let platform = problem.platform();
        // Per-rank flow validity.
        for d in 1..=problem.last_index() {
            let sub = problem.sub_problem(d).map_err(|e| e.to_string())?;
            self.rank_solution(d).verify(&sub).map_err(|e| format!("destination rank {d}: {e}"))?;
        }
        // Aggregated occupations.
        for node in platform.node_ids() {
            let mut out = Ratio::zero();
            let mut inc = Ratio::zero();
            for ((e, _, _), rate) in &self.sends {
                let edge = platform.edge(*e);
                let busy = rate * problem.message_size() * &edge.cost;
                if edge.from == node {
                    out += &busy;
                }
                if edge.to == node {
                    inc += &busy;
                }
            }
            if out > Ratio::one() {
                return Err(format!("{node} emits for {out} > 1 per time-unit"));
            }
            if inc > Ratio::one() {
                return Err(format!("{node} receives for {inc} > 1 per time-unit"));
            }
            let mut compute = Ratio::zero();
            for ((task_node, _, _), rate) in &self.tasks {
                if *task_node == node {
                    let time = problem
                        .task_time(node)
                        .ok_or_else(|| format!("router {node} executes tasks"))?;
                    compute += rate * &time;
                }
            }
            if compute > Ratio::one() {
                return Err(format!("{node} computes for {compute} > 1 per time-unit"));
            }
        }
        Ok(())
    }

    /// Extracts, for every destination rank, the weighted reduction trees
    /// realizing its sub-flow.
    pub fn extract_trees(
        &self,
        problem: &PrefixProblem,
    ) -> Result<BTreeMap<usize, Vec<WeightedTree>>, CoreError> {
        let mut out = BTreeMap::new();
        for d in 1..=problem.last_index() {
            let sub = problem.sub_problem(d)?;
            let trees = self.rank_solution(d).extract_trees(&sub)?;
            out.insert(d, trees);
        }
        Ok(out)
    }

    /// Builds an explicit one-port-feasible periodic schedule achieving this
    /// solution's throughput, by aggregating the reduction trees of every
    /// destination rank into a single weighted-matching decomposition.
    pub fn build_schedule(&self, problem: &PrefixProblem) -> Result<PeriodicSchedule, CoreError> {
        let per_rank_trees = self.extract_trees(problem)?;
        let weights: Vec<Ratio> =
            per_rank_trees.values().flatten().map(|t| t.weight.clone()).collect();
        let period = Ratio::from(lcm_of_denominators(&weights));
        let (slots, computations) = pack_trees(
            problem.platform(),
            per_rank_trees.values().flatten(),
            &period,
            |_| problem.message_size().clone(),
            |node| problem.task_time(node),
        )?;
        Ok(PeriodicSchedule {
            operations_per_period: &self.throughput * &period,
            period,
            slots,
            computations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators::{self, figure6};
    use steady_platform::topologies::hypercube_prefix_instance;
    use steady_rational::rat;

    fn clique3_prefix() -> PrefixProblem {
        let (p, nodes) = generators::clique(3, rat(1, 1));
        PrefixProblem::new(p, nodes, rat(1, 1), rat(1, 1)).unwrap()
    }

    #[test]
    fn two_participant_prefix_matches_reduce() {
        // With two participants the prefix degenerates to a single reduce
        // towards rank 1, so the LP, the upper bound and the reduce optimum all
        // coincide.
        let (p, nodes) = generators::chain(2, rat(1, 1));
        let problem = PrefixProblem::new(p, nodes, rat(1, 1), rat(1, 1)).unwrap();
        let sol = problem.solve().unwrap();
        sol.verify(&problem).unwrap();
        let upper = problem.upper_bound().unwrap();
        assert_eq!(*sol.throughput(), upper);
        let reduce = problem.sub_problem(1).unwrap().solve().unwrap();
        assert_eq!(sol.throughput(), reduce.throughput());
    }

    #[test]
    fn clique3_prefix_is_bracketed_and_scheduled() {
        let problem = clique3_prefix();
        let sol = problem.solve().unwrap();
        sol.verify(&problem).unwrap();
        assert!(sol.throughput().is_positive());
        let upper = problem.upper_bound().unwrap();
        assert!(*sol.throughput() <= upper, "lower bound exceeds upper bound");

        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
        assert_eq!(schedule.throughput(), *sol.throughput());
        // Some computation happens somewhere (rank 2 needs at least one task).
        assert!(!schedule.computations.is_empty());
    }

    #[test]
    fn prefix_throughput_never_exceeds_any_rank_reduce() {
        let problem = clique3_prefix();
        let sol = problem.solve().unwrap();
        for d in 1..=problem.last_index() {
            let reduce = problem.sub_problem(d).unwrap().solve().unwrap();
            assert!(
                sol.throughput() <= reduce.throughput(),
                "prefix TP {} beats rank-{d} reduce TP {}",
                sol.throughput(),
                reduce.throughput()
            );
        }
    }

    #[test]
    fn figure6_platform_prefix() {
        // Same platform as the Figure 6 reduce toy, but used as a prefix: rank
        // 1 needs v[0,1] and rank 2 needs v[0,2].
        let inst = figure6();
        let problem =
            PrefixProblem::new(inst.platform, inst.participants, inst.message_size, inst.task_cost)
                .unwrap();
        let sol = problem.solve().unwrap();
        sol.verify(&problem).unwrap();
        assert!(sol.throughput().is_positive());
        // Every destination rank's trees sum to TP.
        let trees = sol.extract_trees(&problem).unwrap();
        for (d, rank_trees) in &trees {
            let total: Ratio = rank_trees.iter().map(|t| t.weight.clone()).sum();
            assert_eq!(total, *sol.throughput(), "rank {d} trees do not sum to TP");
        }
        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
    }

    #[test]
    fn hypercube_prefix_instance_solves() {
        // 4-node hypercube (dimension 2): small enough for the exact LP.
        let problem =
            PrefixProblem::from_instance(hypercube_prefix_instance(2, rat(1, 1))).unwrap();
        let sol = problem.solve().unwrap();
        sol.verify(&problem).unwrap();
        assert!(sol.throughput().is_positive());
        assert!(*sol.throughput() <= problem.upper_bound().unwrap());
    }

    #[test]
    fn rank_solutions_partition_the_rates() {
        let problem = clique3_prefix();
        let sol = problem.solve().unwrap();
        let total_sends: usize =
            (1..=problem.last_index()).map(|d| sol.rank_solution(d).sends().len()).sum();
        assert_eq!(total_sends, sol.sends().len());
        let total_tasks: usize =
            (1..=problem.last_index()).map(|d| sol.rank_solution(d).tasks().len()).sum();
        assert_eq!(total_tasks, sol.tasks().len());
    }

    #[test]
    fn invalid_problems_are_rejected() {
        let (p, nodes) = generators::clique(3, rat(1, 1));
        assert!(matches!(
            PrefixProblem::new(p.clone(), vec![nodes[0]], rat(1, 1), rat(1, 1)),
            Err(CoreError::EmptyProblem)
        ));
        assert!(matches!(
            PrefixProblem::new(p.clone(), vec![nodes[0], nodes[0]], rat(1, 1), rat(1, 1)),
            Err(CoreError::DuplicateParticipant { .. })
        ));
        // A router cannot participate.
        let mut q = Platform::new();
        let a = q.add_node("a", rat(1, 1));
        let r = q.add_router("r");
        q.add_link(a, r, rat(1, 1));
        assert!(matches!(
            PrefixProblem::new(q, vec![a, r], rat(1, 1), rat(1, 1)),
            Err(CoreError::NotAComputeNode { .. })
        ));
        // Rank 0 must be able to reach rank 1.
        let mut q = Platform::new();
        let a = q.add_node("a", rat(1, 1));
        let b = q.add_node("b", rat(1, 1));
        q.add_edge(b, a, rat(1, 1));
        assert!(matches!(
            PrefixProblem::new(q, vec![a, b], rat(1, 1), rat(1, 1)),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn lp_structure_is_reasonable() {
        let problem = clique3_prefix();
        let (lp, vars) = problem.build_lp();
        // 6 edges x (3 + 6) intervals + 3 nodes x (1 + 4) tasks + TP.
        assert_eq!(vars.send.len(), 54);
        assert_eq!(vars.cons.len(), 15);
        assert_eq!(lp.num_vars(), 70);
        let dump = lp.dump();
        assert!(dump.contains("throughput[d1]"));
        assert!(dump.contains("throughput[d2]"));
        assert!(dump.contains("conservation"));
    }
}
