//! The multi-commodity one-port flow LP behind the Series of Scatters (§3),
//! the Series of Gathers and the Series of Gossips (§3.5): exact solution and
//! periodic schedule construction.
//!
//! All three collectives move full-size messages that are never combined.
//! A message is typed by its **commodity**, an `(origin, destination)` pair,
//! and in the *series* (pipelined) version every origin keeps emitting fresh
//! messages of each of its commodities.  The goal is to maximize the common
//! throughput `TP`: the number of operations initiated per time-unit in
//! steady state.  Only the commodity list differs between the collectives:
//!
//! * **scatter** `SSSP(G)` — the source holds a distinct message for every
//!   target: commodities `(source, t)`;
//! * **gossip** `SSPA2A(G)` (personalized all-to-all) — every source holds a
//!   distinct message for every target: commodities `(s, t)`, `s ≠ t`, of
//!   which the scatter is the special case `|S| = 1`;
//! * **gather** — every source owns a distinct message for one sink:
//!   commodities `(s, sink)`.  The paper treats the gather/reduce family in
//!   §4; when no combining is possible the problem is exactly the
//!   **transpose dual** of the scatter: reversing every edge swaps the
//!   one-port roles of emission and reception, so
//!
//!   ```text
//!   TP_gather(G, sources -> sink)  =  TP_scatter(Gᵀ, sink -> sources),
//!   ```
//!
//!   which [`GatherProblem::dual_scatter`] builds so tests can cross-check
//!   the two routes.
//!
//! The LP has one `send[e, c]` variable per edge and commodity and the
//! throughput `TP`.  Its rows are the one-port constraints (2)–(3) on the
//! edge occupations (4), the conservation law (5) at every node that is
//! neither the origin nor the destination of a commodity, and the throughput
//! equalities (6): each destination receives `TP` messages of each of its
//! commodities per time-unit.  A destination also never re-emits its own
//! commodity (`no-reemit` rows): conservation is not stated at the
//! destination, so without this the LP could bounce delivered messages off a
//! neighbour and count them again on arrival.  Pinning those variables to
//! zero is WLOG and keeps (6) physical.
//!
//! Solving the LP in rational arithmetic and scaling by the least common
//! multiple of the denominators yields an integer number of messages per
//! period, which the weighted-matching decomposition of [`crate::coloring`]
//! turns into an explicit one-port-feasible periodic schedule (§3.3).
//!
//! [`FlowProblem`] is written once; the marker `K` ([`Scatter`], [`Gather`]
//! or [`Gossip`]) only names the collective, labels its commodities in the
//! LP and tags its schedule payloads.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use steady_lp::{LinearExpr, LpProblem, Sense, VarId};
use steady_platform::{EdgeId, GatherInstance, GossipInstance, NodeId, Platform, ScatterInstance};
use steady_rational::{lcm_of_denominators, BigInt, Ratio};

use crate::error::CoreError;
use crate::problem::{positive_values, solve_steady, SteadyProblem};
use crate::schedule::{pack_transfers, Payload, PeriodicSchedule, Transfer};

/// The collective a [`FlowProblem`] solves.
pub trait FlowKind {
    /// Short lowercase name of the collective (see [`SteadyProblem::KIND`]).
    const KIND: &'static str;

    /// The commodity's name in LP variable and constraint names.
    fn label(origin: NodeId, destination: NodeId) -> String;

    /// What a schedule transfer of the commodity carries.
    fn payload(origin: NodeId, destination: NodeId) -> Payload;
}

/// Marker of the Series of Scatters: one source, many targets.
#[derive(Debug, Clone, Copy)]
pub enum Scatter {}

/// Marker of the Series of Gathers: many sources, one sink.
#[derive(Debug, Clone, Copy)]
pub enum Gather {}

/// Marker of the Series of Gossips: every source to every other target.
#[derive(Debug, Clone, Copy)]
pub enum Gossip {}

impl FlowKind for Scatter {
    const KIND: &'static str = "scatter";

    fn label(_: NodeId, destination: NodeId) -> String {
        format!("m{destination}")
    }

    fn payload(_: NodeId, destination: NodeId) -> Payload {
        Payload::Scatter { destination }
    }
}

impl FlowKind for Gather {
    const KIND: &'static str = "gather";

    fn label(origin: NodeId, _: NodeId) -> String {
        format!("g{origin}")
    }

    fn payload(origin: NodeId, _: NodeId) -> Payload {
        Payload::Gather { origin }
    }
}

impl FlowKind for Gossip {
    const KIND: &'static str = "gossip";

    fn label(origin: NodeId, destination: NodeId) -> String {
        format!("m({origin},{destination})")
    }

    fn payload(source: NodeId, destination: NodeId) -> Payload {
        Payload::Gossip { source, destination }
    }
}

/// A pipelined scatter problem: platform, source and targets.
pub type ScatterProblem = FlowProblem<Scatter>;
/// Exact steady-state solution of a scatter problem.
pub type ScatterSolution = FlowSolution<Scatter>;
/// A pipelined gather problem: platform, sources and sink.
pub type GatherProblem = FlowProblem<Gather>;
/// Exact steady-state solution of a gather problem.
pub type GatherSolution = FlowSolution<Gather>;
/// A pipelined personalized all-to-all problem.
pub type GossipProblem = FlowProblem<Gossip>;
/// Exact steady-state solution of a gossip problem.
pub type GossipSolution = FlowSolution<Gossip>;

/// A pipelined flow collective: platform, sources, targets and the
/// `(origin, destination)` commodities between them.
#[derive(Debug, Clone)]
pub struct FlowProblem<K> {
    platform: Platform,
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    commodities: Vec<(NodeId, NodeId)>,
    kind: PhantomData<K>,
}

/// Mapping from LP variables back to flow quantities, exposed so tests and
/// benchmarks can inspect the raw linear program.
#[derive(Debug, Clone)]
pub struct FlowVars {
    /// `send[(edge, commodity_index)]` variables.
    pub send: BTreeMap<(EdgeId, usize), VarId>,
    /// The throughput variable `TP`.
    pub throughput: VarId,
}

/// Exact steady-state solution of a flow collective.
#[derive(Debug, Clone)]
pub struct FlowSolution<K> {
    throughput: Ratio,
    /// `flows[(edge, commodity_index)]` = messages of that commodity crossing
    /// `edge` per time-unit.
    flows: BTreeMap<(EdgeId, usize), Ratio>,
    kind: PhantomData<K>,
}

/// Rejects a node listed twice and, checked in the same pass, a node for
/// which `reachable` fails.
fn check_nodes(nodes: &[NodeId], reachable: impl Fn(NodeId) -> bool) -> Result<(), CoreError> {
    for (i, &n) in nodes.iter().enumerate() {
        if nodes[..i].contains(&n) {
            return Err(CoreError::DuplicateParticipant { node: n });
        }
        if !reachable(n) {
            return Err(CoreError::Unreachable { node: n });
        }
    }
    Ok(())
}

impl ScatterProblem {
    /// Builds and validates a scatter problem.
    pub fn new(
        platform: Platform,
        source: NodeId,
        targets: Vec<NodeId>,
    ) -> Result<Self, CoreError> {
        platform.validate()?;
        if targets.is_empty() {
            return Err(CoreError::EmptyProblem);
        }
        if targets.contains(&source) {
            return Err(CoreError::SourceIsTarget { node: source });
        }
        check_nodes(&targets, |t| platform.is_reachable(source, t))?;
        let commodities = targets.iter().map(|&t| (source, t)).collect();
        let sources = vec![source];
        Ok(FlowProblem { platform, sources, targets, commodities, kind: PhantomData })
    }

    /// Builds a problem from a generated [`ScatterInstance`].
    pub fn from_instance(instance: ScatterInstance) -> Result<Self, CoreError> {
        ScatterProblem::new(instance.platform, instance.source, instance.targets)
    }

    /// The source processor.
    pub fn source(&self) -> NodeId {
        self.sources[0]
    }
}

impl GatherProblem {
    /// Builds and validates a gather problem.
    pub fn new(platform: Platform, sources: Vec<NodeId>, sink: NodeId) -> Result<Self, CoreError> {
        platform.validate()?;
        if sources.is_empty() {
            return Err(CoreError::EmptyProblem);
        }
        if sources.contains(&sink) {
            return Err(CoreError::SourceIsTarget { node: sink });
        }
        check_nodes(&sources, |s| platform.is_reachable(s, sink))?;
        let commodities = sources.iter().map(|&s| (s, sink)).collect();
        let targets = vec![sink];
        Ok(FlowProblem { platform, sources, targets, commodities, kind: PhantomData })
    }

    /// Builds a problem from a generated [`GatherInstance`].
    pub fn from_instance(instance: GatherInstance) -> Result<Self, CoreError> {
        GatherProblem::new(instance.platform, instance.sources, instance.sink)
    }

    /// The sink processor.
    pub fn sink(&self) -> NodeId {
        self.targets[0]
    }

    /// The transpose-dual scatter problem: same node ids, every edge reversed,
    /// the sink becomes the scatter source and the gather sources become the
    /// scatter targets.  Its optimal throughput equals this problem's.
    pub fn dual_scatter(&self) -> Result<ScatterProblem, CoreError> {
        ScatterProblem::new(self.platform.transpose(), self.sink(), self.sources.clone())
    }
}

impl GossipProblem {
    /// Builds and validates a gossip problem.
    pub fn new(
        platform: Platform,
        sources: Vec<NodeId>,
        targets: Vec<NodeId>,
    ) -> Result<Self, CoreError> {
        platform.validate()?;
        if sources.is_empty() || targets.is_empty() {
            return Err(CoreError::EmptyProblem);
        }
        check_nodes(&sources, |_| true)?;
        check_nodes(&targets, |_| true)?;
        let mut commodities = Vec::new();
        for &s in &sources {
            for &t in &targets {
                if s == t {
                    continue;
                }
                if !platform.is_reachable(s, t) {
                    return Err(CoreError::Unreachable { node: t });
                }
                commodities.push((s, t));
            }
        }
        if commodities.is_empty() {
            return Err(CoreError::EmptyProblem);
        }
        Ok(FlowProblem { platform, sources, targets, commodities, kind: PhantomData })
    }

    /// Builds a problem from a generated [`GossipInstance`].
    pub fn from_instance(instance: GossipInstance) -> Result<Self, CoreError> {
        GossipProblem::new(instance.platform, instance.sources, instance.targets)
    }
}

impl<K: FlowKind> FlowProblem<K> {
    /// The platform graph.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The emitting processors, in the order they were given.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The receiving processors, in the order they were given.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Commodities as `(origin, destination)` pairs, indexed as in
    /// [`FlowVars::send`] and [`FlowSolution::flow`]: a scatter's commodity
    /// index is its target's index, a gather's is its source's.
    pub fn commodities(&self) -> &[(NodeId, NodeId)] {
        &self.commodities
    }

    /// Builds the flow linear program.
    pub fn build_lp(&self) -> (LpProblem, FlowVars) {
        let mut lp = LpProblem::maximize();
        let platform = &self.platform;
        let labels: Vec<String> = self.commodities.iter().map(|&(o, d)| K::label(o, d)).collect();

        let mut send = BTreeMap::new();
        for e in platform.edge_ids() {
            let edge = platform.edge(e);
            for (c, label) in labels.iter().enumerate() {
                let v = lp.add_var(format!("send[{}->{},{label}]", edge.from, edge.to));
                send.insert((e, c), v);
            }
        }
        let throughput = lp.add_var("TP");
        lp.set_objective(throughput, Ratio::one());

        // One-port constraints (2) and (3): occupation of each node's
        // outgoing and incoming port within one time-unit.
        for n in platform.node_ids() {
            for (edges, port) in [(platform.out_edges(n), "out"), (platform.in_edges(n), "in")] {
                let mut expr = LinearExpr::new();
                for &e in edges {
                    let cost = &platform.edge(e).cost;
                    for c in 0..labels.len() {
                        expr.add_term(send[&(e, c)], cost.clone());
                    }
                }
                if !expr.is_empty() {
                    lp.add_constraint(
                        format!("one-port-{port}[{n}]"),
                        expr,
                        Sense::Le,
                        Ratio::one(),
                    );
                }
            }
        }

        // Conservation law (5): every message entering a node that is neither
        // the origin nor the destination of its commodity leaves it.
        for n in platform.node_ids() {
            for (c, &(o, d)) in self.commodities.iter().enumerate() {
                if n == o || n == d {
                    continue;
                }
                let mut expr = LinearExpr::new();
                for &e in platform.in_edges(n) {
                    expr.add_term(send[&(e, c)], Ratio::one());
                }
                for &e in platform.out_edges(n) {
                    expr.add_term(send[&(e, c)], -Ratio::one());
                }
                if !expr.is_empty() {
                    let name = format!("conservation[{n},{}]", labels[c]);
                    lp.add_constraint(name, expr, Sense::Eq, Ratio::zero());
                }
            }
        }

        // A destination never re-emits its own commodity (see the module doc).
        for (c, &(_, d)) in self.commodities.iter().enumerate() {
            for &e in platform.out_edges(d) {
                lp.add_constraint(
                    format!("no-reemit[{d}]"),
                    LinearExpr::var(send[&(e, c)]),
                    Sense::Eq,
                    Ratio::zero(),
                );
            }
        }

        // Throughput equalities (6): each destination receives TP messages of
        // its commodity per time-unit.
        for (c, &(_, d)) in self.commodities.iter().enumerate() {
            let mut expr = LinearExpr::new();
            for &e in platform.in_edges(d) {
                expr.add_term(send[&(e, c)], Ratio::one());
            }
            expr.add_term(throughput, -Ratio::one());
            lp.add_constraint(format!("throughput[{}]", labels[c]), expr, Sense::Eq, Ratio::zero());
        }

        (lp, FlowVars { send, throughput })
    }

    /// Solves the flow LP exactly and returns the steady-state solution.
    pub fn solve(&self) -> Result<FlowSolution<K>, CoreError> {
        solve_steady(self)
    }
}

impl<K: FlowKind> SteadyProblem for FlowProblem<K> {
    type Vars = FlowVars;
    type Solution = FlowSolution<K>;
    const KIND: &'static str = K::KIND;

    fn formulate(&self) -> (LpProblem, FlowVars) {
        self.build_lp()
    }

    fn interpret(&self, vars: &FlowVars, values: &[Ratio]) -> FlowSolution<K> {
        FlowSolution::from_flows(
            values[vars.throughput.index()].clone(),
            positive_values(&vars.send, values),
        )
    }
}

impl<K: FlowKind> FlowSolution<K> {
    /// Builds a solution directly from raw flows (used by the paper-solution
    /// tests and by the fixed-period approximation, which rounds the flows of
    /// an optimal solution down to a smaller period).
    pub fn from_flows(throughput: Ratio, flows: BTreeMap<(EdgeId, usize), Ratio>) -> Self {
        FlowSolution { throughput, flows, kind: PhantomData }
    }

    /// Optimal steady-state throughput `TP(G)` (operations per time-unit).
    pub fn throughput(&self) -> &Ratio {
        &self.throughput
    }

    /// Messages of commodity `commodity` crossing `edge` per time-unit.
    pub fn flow(&self, edge: EdgeId, commodity: usize) -> Ratio {
        self.flows.get(&(edge, commodity)).cloned().unwrap_or_else(Ratio::zero)
    }

    /// All non-zero flows.
    pub fn flows(&self) -> &BTreeMap<(EdgeId, usize), Ratio> {
        &self.flows
    }

    /// Occupation `s(P_i -> P_j)` of an edge: total transfer time per time-unit.
    pub fn edge_occupation(&self, problem: &FlowProblem<K>, edge: EdgeId) -> Ratio {
        let cost = &problem.platform().edge(edge).cost;
        let total: Ratio = (0..problem.commodities.len()).map(|c| self.flow(edge, c)).sum();
        &total * cost
    }

    /// The minimal integer period: the least common multiple of the
    /// denominators of all flows and of the throughput.
    pub fn period(&self) -> BigInt {
        let mut values: Vec<Ratio> = self.flows.values().cloned().collect();
        values.push(self.throughput.clone());
        lcm_of_denominators(&values)
    }

    /// Exhaustively re-checks every constraint of the flow LP on this
    /// solution.
    pub fn verify(&self, problem: &FlowProblem<K>) -> Result<(), String> {
        let platform = problem.platform();
        let mut edge_flow = vec![Ratio::zero(); platform.num_edges()];
        for ((e, c), v) in &self.flows {
            if v.is_negative() {
                return Err(format!("negative flow on edge {e:?} commodity {c}"));
            }
            if *c >= problem.commodities.len() {
                return Err(format!("unknown commodity index {c}"));
            }
            if e.index() >= platform.num_edges() {
                return Err(format!("unknown edge index {}", e.index()));
            }
            edge_flow[e.index()] += v;
        }
        // One-port.
        let port = |edges: &[EdgeId]| -> Ratio {
            edges.iter().map(|&e| &edge_flow[e.index()] * &platform.edge(e).cost).sum()
        };
        for n in platform.node_ids() {
            let out = port(platform.out_edges(n));
            if out > Ratio::one() {
                return Err(format!("{n} emits for {out} > 1 per time-unit"));
            }
            let inc = port(platform.in_edges(n));
            if inc > Ratio::one() {
                return Err(format!("{n} receives for {inc} > 1 per time-unit"));
            }
        }
        // Conservation.
        for n in platform.node_ids() {
            for (c, &(o, d)) in problem.commodities.iter().enumerate() {
                if n == o || n == d {
                    continue;
                }
                let inflow: Ratio = platform.in_edges(n).iter().map(|&e| self.flow(e, c)).sum();
                let outflow: Ratio = platform.out_edges(n).iter().map(|&e| self.flow(e, c)).sum();
                if inflow != outflow {
                    return Err(format!(
                        "conservation violated at {n} for {}: in {inflow}, out {outflow}",
                        K::label(o, d)
                    ));
                }
            }
        }
        // No re-emission at the destination, and throughput.
        for (c, &(o, d)) in problem.commodities.iter().enumerate() {
            if platform.out_edges(d).iter().any(|&e| self.flow(e, c).is_positive()) {
                return Err(format!("{d} re-emits {} after its delivery", K::label(o, d)));
            }
            let received: Ratio = platform.in_edges(d).iter().map(|&e| self.flow(e, c)).sum();
            if received != self.throughput {
                return Err(format!(
                    "{d} receives {received} of {} instead of TP = {}",
                    K::label(o, d),
                    self.throughput
                ));
            }
        }
        Ok(())
    }

    /// Builds the explicit periodic schedule achieving this solution's
    /// throughput (§3.3): scale to the integer period, decompose the per-link
    /// load into matchings, and split the per-link message mix across the
    /// matchings that involve the link.
    pub fn build_schedule(&self, problem: &FlowProblem<K>) -> Result<PeriodicSchedule, CoreError> {
        let platform = problem.platform();
        let period = Ratio::from(self.period());
        let transfers = self.flows.iter().map(|(&(e, c), flow)| {
            let edge = platform.edge(e);
            let (origin, destination) = problem.commodities[c];
            let count = flow * &period;
            Transfer {
                from: edge.from,
                to: edge.to,
                payload: K::payload(origin, destination),
                duration: &count * &edge.cost,
                count,
            }
        });
        Ok(PeriodicSchedule {
            slots: pack_transfers(transfers)?,
            operations_per_period: &self.throughput * &period,
            period,
            computations: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators;
    use steady_rational::rat;

    /// Two infeasible gossip flows on `chain(3)` with the single commodity
    /// `(P0, P1)`: the unified `verify` rejects both, as it does for the
    /// scatter and the gather.
    #[test]
    fn gossip_verify_rejects_negative_and_reemitted_flows() {
        let (p, nodes) = generators::chain(3, rat(1, 1));
        let edge = |a: usize, b: usize| p.edge_between(nodes[a], nodes[b]).unwrap();
        let problem = GossipProblem::new(p.clone(), vec![nodes[0]], vec![nodes[1]]).unwrap();
        assert_eq!(problem.commodities(), &[(nodes[0], nodes[1])]);

        // A negative flow on P1 -> P0 at zero throughput.
        let negative = GossipSolution::from_flows(
            Ratio::zero(),
            BTreeMap::from([((edge(1, 0), 0), rat(-1, 2))]),
        );
        let err = negative.verify(&problem).unwrap_err();
        assert!(err.contains("negative flow"), "{err}");

        // P1 bounces 1/4 of what it received off P2 and counts it again.
        let bounce = GossipSolution::from_flows(
            rat(3, 4),
            BTreeMap::from([
                ((edge(0, 1), 0), rat(1, 2)),
                ((edge(1, 2), 0), rat(1, 4)),
                ((edge(2, 1), 0), rat(1, 4)),
            ]),
        );
        let err = bounce.verify(&problem).unwrap_err();
        assert!(err.contains("re-emits"), "{err}");
    }
}
