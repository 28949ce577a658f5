//! Series of Reduces (§4): LP formulation `SSR(G)`, exact solution,
//! reduction-tree based schedule construction.
//!
//! Participants `P_{r_0}, ..., P_{r_N}` own values `v_0, ..., v_N`; each
//! reduce operation computes `v = v_0 ⊕ ... ⊕ v_N` for an associative,
//! non-commutative operator `⊕` and stores the result on `P_target`.  Partial
//! results `v[k,m] = v_k ⊕ ... ⊕ v_m` can be combined by the computational
//! task `T_{k,l,m} : v[k,m] = v[k,l] ⊕ v[l+1,m]`, so — unlike the scatter —
//! the steady-state behaviour interleaves communications and computations.
//!
//! The LP `SSR(G)` (§4.2) has one `send` variable per (edge, interval) pair,
//! one `cons` variable per (processor, task) pair, the per-processor compute
//! occupation `α(P_i)`, and the throughput `TP`.  Its constraints are the
//! one-port inequalities, the compute-occupation bound, the conservation law
//! (10) coupling transfers and computations, and the throughput equation (11).
//!
//! From the solved LP, [`crate::trees`] extracts a polynomial number of
//! weighted **reduction trees** (Lemma 2 / Theorem 1) and
//! [`ReduceSolution::build_schedule`] turns them into an explicit periodic
//! schedule using the weighted-matching decomposition, exactly as for the
//! scatter case.

use std::collections::BTreeMap;

use steady_lp::{LinearExpr, LpProblem, Sense, VarId};
use steady_platform::{EdgeId, NodeId, Platform, ReduceInstance};
use steady_rational::{lcm_of_denominators, BigInt, Ratio};

use crate::error::CoreError;
use crate::schedule::{pack_trees, PeriodicSchedule};
use crate::trees::{extract_trees, WeightedTree};

/// An interval `[k, m]` of participant indices: the partial value `v[k, m]`.
pub type Interval = (usize, usize);

/// A reduction task `T_{k,l,m}`: combines `v[k,l]` and `v[l+1,m]` into `v[k,m]`.
pub type Task = (usize, usize, usize);

/// A pipelined reduce problem.
#[derive(Debug, Clone)]
pub struct ReduceProblem {
    platform: Platform,
    participants: Vec<NodeId>,
    target: NodeId,
    message_size: Ratio,
    task_cost: Ratio,
    size_overrides: BTreeMap<Interval, Ratio>,
}

/// Mapping from LP variables back to reduce quantities.
#[derive(Debug, Clone)]
pub struct ReduceVars {
    /// `send[(edge, interval)]` variables.
    pub send: BTreeMap<(EdgeId, Interval), VarId>,
    /// `cons[(node, task)]` variables (compute nodes only).
    pub cons: BTreeMap<(NodeId, Task), VarId>,
    /// The throughput variable.
    pub throughput: VarId,
}

/// Exact steady-state solution of a reduce problem.
#[derive(Debug, Clone)]
pub struct ReduceSolution {
    throughput: Ratio,
    /// `sends[(edge, (k, m))]` = messages `v[k,m]` crossing `edge` per time-unit.
    sends: BTreeMap<(EdgeId, Interval), Ratio>,
    /// `tasks[(node, (k, l, m))]` = tasks `T_{k,l,m}` executed on `node` per time-unit.
    tasks: BTreeMap<(NodeId, Task), Ratio>,
}

impl ReduceProblem {
    /// Builds and validates a reduce problem.
    pub fn new(
        platform: Platform,
        participants: Vec<NodeId>,
        target: NodeId,
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
            if !platform.is_reachable(p, target) {
                return Err(CoreError::Unreachable { node: p });
            }
        }
        Ok(ReduceProblem {
            platform,
            participants,
            target,
            message_size,
            task_cost,
            size_overrides: BTreeMap::new(),
        })
    }

    /// Builds a problem from a generated [`ReduceInstance`].
    pub fn from_instance(instance: ReduceInstance) -> Result<Self, CoreError> {
        ReduceProblem::new(
            instance.platform,
            instance.participants,
            instance.target,
            instance.message_size,
            instance.task_cost,
        )
    }

    /// Overrides the size of one partial value `v[k, m]` (all others keep the
    /// uniform `message_size`).
    pub fn set_size_override(&mut self, interval: Interval, size: Ratio) {
        self.size_overrides.insert(interval, size);
    }

    /// The platform graph.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Participants in logical order (`participants[i]` owns `v_i`).
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// The target node receiving `v[0, N]`.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Largest participant index `N`.
    pub fn last_index(&self) -> usize {
        self.participants.len() - 1
    }

    /// Size of the partial value `v[k, m]`.
    pub fn size(&self, interval: Interval) -> Ratio {
        self.size_overrides.get(&interval).cloned().unwrap_or_else(|| self.message_size.clone())
    }

    /// Time needed by `node` to execute one task `T_{k,l,m}`
    /// (`task_cost / speed(node)`); `None` for routers.
    pub fn task_time(&self, node: NodeId) -> Option<Ratio> {
        let speed = &self.platform.node(node).speed;
        if speed.is_positive() {
            Some(&self.task_cost / speed)
        } else {
            None
        }
    }

    /// All intervals `(k, m)` with `0 <= k <= m <= N`.
    pub fn intervals(&self) -> Vec<Interval> {
        let n = self.last_index();
        let mut out = Vec::new();
        for k in 0..=n {
            for m in k..=n {
                out.push((k, m));
            }
        }
        out
    }

    /// All tasks `(k, l, m)` with `k <= l < m <= N`.
    pub fn task_triples(&self) -> Vec<Task> {
        let n = self.last_index();
        let mut out = Vec::new();
        for k in 0..=n {
            for m in (k + 1)..=n {
                for l in k..m {
                    out.push((k, l, m));
                }
            }
        }
        out
    }

    /// Logical index of a node if it is a participant.
    pub fn participant_index(&self, node: NodeId) -> Option<usize> {
        self.participants.iter().position(|&p| p == node)
    }

    /// Whether the conservation law applies to `(node, interval)`:
    /// it does *not* apply to the initial values `v[i,i]` on their owner nor to
    /// the final value `v[0,N]` on the target.
    fn conservation_applies(&self, node: NodeId, interval: Interval) -> bool {
        let n = self.last_index();
        if let Some(idx) = self.participant_index(node) {
            if interval == (idx, idx) {
                return false;
            }
        }
        !(node == self.target && interval == (0, n))
    }

    /// Builds the `SSR(G)` linear program.
    pub fn build_lp(&self) -> (LpProblem, ReduceVars) {
        let mut lp = LpProblem::maximize();
        let platform = &self.platform;
        let n = self.last_index();
        let intervals = self.intervals();
        let triples = self.task_triples();

        let mut send = BTreeMap::new();
        for e in platform.edge_ids() {
            let edge = platform.edge(e);
            for &iv in &intervals {
                let v =
                    lp.add_var(format!("send[{}->{},v[{},{}]]", edge.from, edge.to, iv.0, iv.1));
                send.insert((e, iv), v);
            }
        }
        let mut cons = BTreeMap::new();
        for node in platform.node_ids() {
            if !platform.node(node).can_compute() {
                continue;
            }
            for &t in &triples {
                let v = lp.add_var(format!("cons[{node},T[{},{},{}]]", t.0, t.1, t.2));
                cons.insert((node, t), v);
            }
        }
        let throughput = lp.add_var("TP");
        lp.set_objective(throughput, Ratio::one());

        // One-port constraints (2)-(3) with the size-aware occupation (8).
        for node in platform.node_ids() {
            let mut out_expr = LinearExpr::new();
            for &e in platform.out_edges(node) {
                let cost = platform.edge(e).cost.clone();
                for &iv in &intervals {
                    out_expr.add_term(send[&(e, iv)], &self.size(iv) * &cost);
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
                for &iv in &intervals {
                    in_expr.add_term(send[&(e, iv)], &self.size(iv) * &cost);
                }
            }
            if !in_expr.is_empty() {
                lp.add_constraint(format!("one-port-in[{node}]"), in_expr, Sense::Le, Ratio::one());
            }
        }

        // Compute occupation (7) + (9): alpha(P_i) <= 1.
        for node in platform.node_ids() {
            let Some(task_time) = self.task_time(node) else { continue };
            let mut expr = LinearExpr::new();
            for &t in &triples {
                expr.add_term(cons[&(node, t)], task_time.clone());
            }
            if !expr.is_empty() {
                lp.add_constraint(format!("compute[{node}]"), expr, Sense::Le, Ratio::one());
            }
        }

        // Conservation law (10).
        for node in platform.node_ids() {
            let computes = platform.node(node).can_compute();
            for &(k, m) in &intervals {
                if !self.conservation_applies(node, (k, m)) {
                    continue;
                }
                let mut expr = LinearExpr::new();
                // Incoming: transfers of v[k,m] into the node...
                for &e in platform.in_edges(node) {
                    expr.add_term(send[&(e, (k, m))], Ratio::one());
                }
                // ... and local tasks producing v[k,m].
                if computes {
                    for l in k..m {
                        expr.add_term(cons[&(node, (k, l, m))], Ratio::one());
                    }
                }
                // Outgoing: transfers of v[k,m] away from the node...
                for &e in platform.out_edges(node) {
                    expr.add_term(send[&(e, (k, m))], -Ratio::one());
                }
                // ... and local tasks consuming v[k,m]: as the left operand of
                // T_{k,m,n} (n > m) or the right operand of T_{n,k-1,m} (n < k).
                if computes {
                    for next in (m + 1)..=n {
                        expr.add_term(cons[&(node, (k, m, next))], -Ratio::one());
                    }
                    for prev in 0..k {
                        expr.add_term(cons[&(node, (prev, k - 1, m))], -Ratio::one());
                    }
                }
                if !expr.is_empty() {
                    lp.add_constraint(
                        format!("conservation[{node},v[{k},{m}]]"),
                        expr,
                        Sense::Eq,
                        Ratio::zero(),
                    );
                }
            }
        }

        // The conservation law is deliberately not stated for v[0,N] on the
        // target (the final result is consumed there).  Without an extra
        // condition the LP could exploit this by letting the target *emit*
        // final results it never computed and count them again when they come
        // back, inflating TP.  Re-emitting the final result is never useful,
        // so we pin those variables to zero (a WLOG restriction that restores
        // the physical meaning of constraint (11)).
        for &e in platform.out_edges(self.target) {
            lp.add_constraint(
                format!("no-reemit[{}]", self.target),
                LinearExpr::var(send[&(e, (0, n))]),
                Sense::Eq,
                Ratio::zero(),
            );
        }

        // Throughput (11): complete results reaching the target.
        {
            let mut expr = LinearExpr::new();
            for &e in platform.in_edges(self.target) {
                expr.add_term(send[&(e, (0, n))], Ratio::one());
            }
            if platform.node(self.target).can_compute() {
                for l in 0..n {
                    expr.add_term(cons[&(self.target, (0, l, n))], Ratio::one());
                }
            }
            expr.add_term(throughput, -Ratio::one());
            lp.add_constraint("throughput", expr, Sense::Eq, Ratio::zero());
        }

        (lp, ReduceVars { send, cons, throughput })
    }

    /// Solves `SSR(G)` exactly.
    pub fn solve(&self) -> Result<ReduceSolution, CoreError> {
        crate::problem::solve_steady(self)
    }
}

impl crate::problem::SteadyProblem for ReduceProblem {
    type Vars = ReduceVars;
    type Solution = ReduceSolution;
    const KIND: &'static str = "reduce";

    fn formulate(&self) -> (LpProblem, ReduceVars) {
        self.build_lp()
    }

    fn interpret(&self, vars: &ReduceVars, values: &[Ratio]) -> ReduceSolution {
        ReduceSolution {
            throughput: values[vars.throughput.index()].clone(),
            sends: crate::problem::positive_values(&vars.send, values),
            tasks: crate::problem::positive_values(&vars.cons, values),
        }
    }
}

impl ReduceSolution {
    /// Optimal steady-state throughput (reduce operations per time-unit).
    pub fn throughput(&self) -> &Ratio {
        &self.throughput
    }

    /// Messages `v[k,m]` crossing `edge` per time-unit.
    pub fn send_rate(&self, edge: EdgeId, interval: Interval) -> Ratio {
        self.sends.get(&(edge, interval)).cloned().unwrap_or_else(Ratio::zero)
    }

    /// Tasks `T_{k,l,m}` executed on `node` per time-unit.
    pub fn task_rate(&self, node: NodeId, task: Task) -> Ratio {
        self.tasks.get(&(node, task)).cloned().unwrap_or_else(Ratio::zero)
    }

    /// All non-zero send rates.
    pub fn sends(&self) -> &BTreeMap<(EdgeId, Interval), Ratio> {
        &self.sends
    }

    /// All non-zero task rates.
    pub fn tasks(&self) -> &BTreeMap<(NodeId, Task), Ratio> {
        &self.tasks
    }

    /// Builds a solution directly from raw rates (used by tests that verify
    /// the paper's published solutions and by the simulator's fault-injection
    /// tests).
    pub fn from_rates(
        throughput: Ratio,
        sends: BTreeMap<(EdgeId, Interval), Ratio>,
        tasks: BTreeMap<(NodeId, Task), Ratio>,
    ) -> Self {
        ReduceSolution { throughput, sends, tasks }
    }

    /// The minimal integer period: LCM of the denominators of all rates.
    pub fn period(&self) -> BigInt {
        let mut values: Vec<Ratio> = self.sends.values().cloned().collect();
        values.extend(self.tasks.values().cloned());
        values.push(self.throughput.clone());
        lcm_of_denominators(&values)
    }

    /// Compute occupation `alpha(P_i)` of a node per time-unit.
    pub fn compute_occupation(&self, problem: &ReduceProblem, node: NodeId) -> Ratio {
        let Some(task_time) = problem.task_time(node) else {
            return Ratio::zero();
        };
        let total: Ratio =
            self.tasks.iter().filter(|((n, _), _)| *n == node).map(|(_, rate)| rate.clone()).sum();
        total * task_time
    }

    /// Outgoing communication occupation of a node per time-unit.
    pub fn send_occupation(&self, problem: &ReduceProblem, node: NodeId) -> Ratio {
        let platform = problem.platform();
        let mut total = Ratio::zero();
        for &e in platform.out_edges(node) {
            let cost = &platform.edge(e).cost;
            for ((edge, iv), rate) in &self.sends {
                if *edge == e {
                    total += rate * &problem.size(*iv) * cost;
                }
            }
        }
        total
    }

    /// Incoming communication occupation of a node per time-unit.
    pub fn recv_occupation(&self, problem: &ReduceProblem, node: NodeId) -> Ratio {
        let platform = problem.platform();
        let mut total = Ratio::zero();
        for &e in platform.in_edges(node) {
            let cost = &platform.edge(e).cost;
            for ((edge, iv), rate) in &self.sends {
                if *edge == e {
                    total += rate * &problem.size(*iv) * cost;
                }
            }
        }
        total
    }

    /// Exhaustively re-checks every constraint of `SSR(G)` on this solution.
    pub fn verify(&self, problem: &ReduceProblem) -> Result<(), String> {
        let platform = problem.platform();
        let n = problem.last_index();
        for ((e, iv), v) in &self.sends {
            if v.is_negative() {
                return Err(format!("negative send rate on edge {:?} for v[{},{}]", e, iv.0, iv.1));
            }
            if iv.0 > iv.1 || iv.1 > n {
                return Err(format!("invalid interval ({}, {})", iv.0, iv.1));
            }
        }
        for ((node, t), v) in &self.tasks {
            if v.is_negative() {
                return Err(format!("negative task rate on {node}"));
            }
            if !(t.0 <= t.1 && t.1 < t.2 && t.2 <= n) {
                return Err(format!("invalid task ({}, {}, {})", t.0, t.1, t.2));
            }
            if problem.task_time(*node).is_none() {
                return Err(format!("router {node} executes tasks"));
            }
        }
        // Port and compute occupations.
        for node in platform.node_ids() {
            if self.send_occupation(problem, node) > Ratio::one() {
                return Err(format!("{node} emits for more than one time-unit per time-unit"));
            }
            if self.recv_occupation(problem, node) > Ratio::one() {
                return Err(format!("{node} receives for more than one time-unit per time-unit"));
            }
            if self.compute_occupation(problem, node) > Ratio::one() {
                return Err(format!("{node} computes for more than one time-unit per time-unit"));
            }
        }
        // Conservation law.
        for node in platform.node_ids() {
            for iv in problem.intervals() {
                if !problem.conservation_applies(node, iv) {
                    continue;
                }
                let (k, m) = iv;
                let mut incoming: Ratio =
                    platform.in_edges(node).iter().map(|&e| self.send_rate(e, iv)).sum();
                for l in k..m {
                    incoming += self.task_rate(node, (k, l, m));
                }
                let mut outgoing: Ratio =
                    platform.out_edges(node).iter().map(|&e| self.send_rate(e, iv)).sum();
                for next in (m + 1)..=n {
                    outgoing += self.task_rate(node, (k, m, next));
                }
                for prev in 0..k {
                    outgoing += self.task_rate(node, (prev, k - 1, m));
                }
                if incoming != outgoing {
                    return Err(format!(
                        "conservation violated at {node} for v[{k},{m}]: in {incoming}, out {outgoing}"
                    ));
                }
            }
        }
        // The target never re-emits the final result (see build_lp).
        for &e in platform.out_edges(problem.target()) {
            if self.send_rate(e, (0, n)).is_positive() {
                return Err(format!(
                    "target {} re-emits the final result v[0,{n}]",
                    problem.target()
                ));
            }
        }
        // Throughput.
        let mut delivered: Ratio =
            platform.in_edges(problem.target()).iter().map(|&e| self.send_rate(e, (0, n))).sum();
        for l in 0..n {
            delivered += self.task_rate(problem.target(), (0, l, n));
        }
        if delivered != self.throughput {
            return Err(format!(
                "target receives {delivered} complete results instead of TP = {}",
                self.throughput
            ));
        }
        Ok(())
    }

    /// Extracts the weighted reduction trees realizing this solution
    /// (Lemma 2 / Theorem 1).
    pub fn extract_trees(&self, problem: &ReduceProblem) -> Result<Vec<WeightedTree>, CoreError> {
        extract_trees(problem, self)
    }

    /// Builds the explicit periodic schedule achieving this solution's
    /// throughput: extract the reduction trees, aggregate their transfers into
    /// the per-link load of one period, decompose into matchings, and attach
    /// the (fully overlapped) per-node computations.
    pub fn build_schedule(&self, problem: &ReduceProblem) -> Result<PeriodicSchedule, CoreError> {
        let trees = self.extract_trees(problem)?;
        self.build_schedule_from_trees(problem, &trees)
    }

    /// Same as [`ReduceSolution::build_schedule`] but re-using already
    /// extracted trees (the fixed-period approximation path re-weights them).
    pub fn build_schedule_from_trees(
        &self,
        problem: &ReduceProblem,
        trees: &[WeightedTree],
    ) -> Result<PeriodicSchedule, CoreError> {
        // Period: make every tree weight integral.
        let weights: Vec<Ratio> = trees.iter().map(|t| t.weight.clone()).collect();
        let period = Ratio::from(lcm_of_denominators(&weights));
        let operations = trees.iter().map(|t| &t.weight * &period).sum();
        let (slots, computations) = pack_trees(
            problem.platform(),
            trees,
            &period,
            |interval| problem.size(interval),
            |node| problem.task_time(node),
        )?;
        Ok(PeriodicSchedule { period, operations_per_period: operations, slots, computations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators::{self, figure6};
    use steady_rational::rat;

    fn figure6_problem() -> ReduceProblem {
        ReduceProblem::from_instance(figure6()).unwrap()
    }

    #[test]
    fn figure6_throughput_is_one() {
        let problem = figure6_problem();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(1, 1));
        sol.verify(&problem).unwrap();
    }

    #[test]
    fn figure6_paper_solution_is_feasible() {
        // Figure 6(b): for a period of 3,
        //   send(P1 -> P2, v[1,1]) = 2, send(P2 -> P1, v[2,2]) = 1,
        //   send(P1 -> P0, v[1,2]) = 1, send(P2 -> P0, v[1,2]) = 2,
        //   cons(P1, T_{1,1,2}) = 1, cons(P2, T_{1,1,2}) = 2, cons(P0, T_{0,0,2}) = 3.
        let problem = figure6_problem();
        let platform = problem.platform();
        let e = |a: usize, b: usize| platform.edge_between(NodeId(a), NodeId(b)).unwrap();
        let mut sends = BTreeMap::new();
        sends.insert((e(1, 2), (1, 1)), rat(2, 3));
        sends.insert((e(2, 1), (2, 2)), rat(1, 3));
        sends.insert((e(1, 0), (1, 2)), rat(1, 3));
        sends.insert((e(2, 0), (1, 2)), rat(2, 3));
        let mut tasks = BTreeMap::new();
        tasks.insert((NodeId(1), (1, 1, 2)), rat(1, 3));
        tasks.insert((NodeId(2), (1, 1, 2)), rat(2, 3));
        tasks.insert((NodeId(0), (0, 0, 2)), rat(1, 1));
        let paper = ReduceSolution::from_rates(rat(1, 1), sends, tasks);
        paper.verify(&problem).unwrap();
        // Its throughput matches the LP optimum.
        let sol = problem.solve().unwrap();
        assert_eq!(sol.throughput(), paper.throughput());
        // Scaled to the paper's period of 3 the node occupations stay within bounds.
        assert!(paper.compute_occupation(&problem, NodeId(0)) <= rat(1, 1));
        assert_eq!(paper.compute_occupation(&problem, NodeId(0)), rat(1, 2));
        assert_eq!(paper.send_occupation(&problem, NodeId(1)), rat(1, 1));
        assert_eq!(paper.send_occupation(&problem, NodeId(2)), rat(1, 1));
    }

    #[test]
    fn figure6_schedule_is_valid() {
        let problem = figure6_problem();
        let sol = problem.solve().unwrap();
        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
        assert_eq!(schedule.throughput(), rat(1, 1));
    }

    #[test]
    fn two_node_reduce_chain() {
        // Two participants P0 (target) and P1 connected by a unit link;
        // each operation needs v[1,1] shipped to P0 (size 1, cost 1) and one
        // task T_{0,0,1} on P0 (speed 1) -- or the task could run on P1 after
        // shipping v[0,0] there and shipping the result back, which is slower.
        // The optimum interleaves nothing fancier than TP = 1: the link carries
        // one unit-size message per operation in the best case, and P0's
        // compute port handles one task per time-unit.
        let (p, nodes) = generators::chain(2, rat(1, 1));
        let problem =
            ReduceProblem::new(p, vec![nodes[0], nodes[1]], nodes[0], rat(1, 1), rat(1, 1))
                .unwrap();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(1, 1));
        sol.verify(&problem).unwrap();
        let schedule = sol.build_schedule(&problem).unwrap();
        schedule.validate(problem.platform()).unwrap();
    }

    #[test]
    fn slow_link_bounds_throughput() {
        // Same two-node reduce but the link costs 4 per unit: v[1,1] (size 1)
        // takes 4 time-units to cross, so TP = 1/4.
        let mut p = Platform::new();
        let p0 = p.add_node("P0", rat(1, 1));
        let p1 = p.add_node("P1", rat(1, 1));
        p.add_link(p0, p1, rat(4, 1));
        let problem = ReduceProblem::new(p, vec![p0, p1], p0, rat(1, 1), rat(1, 1)).unwrap();
        let sol = problem.solve().unwrap();
        assert_eq!(*sol.throughput(), rat(1, 4));
    }

    #[test]
    fn slow_target_cpu_bounds_throughput() {
        // Star of 3 participants around a slow target: the target must execute
        // at least one task per operation (non-commutative reduction ending at
        // the target requires the last combine or a transfer of v[0,N]); with
        // speed 1/2 and fast links, computation elsewhere is preferred, but the
        // reduction can be finished on P1 or P2 and shipped, so communication
        // (cost 1/10, size 1) is the real bottleneck only at 10 ops/unit; the
        // compute capacity of the three nodes (1/2 + 1 + 1 tasks per unit,
        // 2 tasks per op) bounds TP at 5/4.
        let mut p = Platform::new();
        let p0 = p.add_node("P0", rat(1, 2));
        let p1 = p.add_node("P1", rat(1, 1));
        let p2 = p.add_node("P2", rat(1, 1));
        p.add_link(p0, p1, rat(1, 10));
        p.add_link(p0, p2, rat(1, 10));
        p.add_link(p1, p2, rat(1, 10));
        let problem = ReduceProblem::new(p, vec![p0, p1, p2], p0, rat(1, 1), rat(1, 1)).unwrap();
        let sol = problem.solve().unwrap();
        sol.verify(&problem).unwrap();
        assert_eq!(*sol.throughput(), rat(5, 4));
    }

    #[test]
    fn invalid_problems_are_rejected() {
        let inst = figure6();
        assert!(matches!(
            ReduceProblem::new(
                inst.platform.clone(),
                vec![inst.participants[0]],
                inst.target,
                rat(1, 1),
                rat(1, 1)
            ),
            Err(CoreError::EmptyProblem)
        ));
        assert!(matches!(
            ReduceProblem::new(
                inst.platform.clone(),
                vec![inst.participants[0], inst.participants[0]],
                inst.target,
                rat(1, 1),
                rat(1, 1)
            ),
            Err(CoreError::DuplicateParticipant { .. })
        ));
        // A router cannot participate.
        let mut p = inst.platform.clone();
        let router = p.add_router("r");
        p.add_link(router, NodeId(0), rat(1, 1));
        assert!(matches!(
            ReduceProblem::new(p, vec![router, NodeId(0)], NodeId(0), rat(1, 1), rat(1, 1)),
            Err(CoreError::NotAComputeNode { .. })
        ));
        // Unreachable participant.
        let mut p = Platform::new();
        let a = p.add_node("a", rat(1, 1));
        let b = p.add_node("b", rat(1, 1));
        assert!(matches!(
            ReduceProblem::new(p, vec![a, b], a, rat(1, 1), rat(1, 1)),
            Err(CoreError::Unreachable { .. })
        ));
    }

    #[test]
    fn interval_and_task_enumeration() {
        let problem = figure6_problem();
        assert_eq!(problem.last_index(), 2);
        assert_eq!(problem.intervals().len(), 6);
        assert_eq!(problem.task_triples().len(), 4); // (0,0,1) (0,0,2) (0,1,2) (1,1,2)
        assert_eq!(problem.participant_index(NodeId(1)), Some(1));
        assert_eq!(problem.participant_index(NodeId(7)), None);
    }

    #[test]
    fn size_overrides_affect_lp() {
        let mut problem = figure6_problem();
        assert_eq!(problem.size((0, 1)), rat(1, 1));
        problem.set_size_override((0, 1), rat(5, 1));
        assert_eq!(problem.size((0, 1)), rat(5, 1));
        assert_eq!(problem.size((1, 2)), rat(1, 1));
    }

    #[test]
    fn lp_dimensions() {
        let problem = figure6_problem();
        let (lp, vars) = problem.build_lp();
        // 6 edges x 6 intervals sends + 3 nodes x 4 tasks cons + TP.
        assert_eq!(vars.send.len(), 36);
        assert_eq!(vars.cons.len(), 12);
        assert_eq!(lp.num_vars(), 49);
        assert!(lp.num_constraints() > 10);
    }
}
