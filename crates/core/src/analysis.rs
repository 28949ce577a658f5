//! Bottleneck analysis of steady-state solutions.
//!
//! The optimal throughput of every steady-state LP is pinned by a handful of
//! saturated resources: an outgoing or incoming port whose occupation reaches
//! 1, or (for reduce) a processor whose compute occupation reaches 1.  This
//! module recomputes the per-resource occupations of a solution and reports
//! which resources are tight, which is how the experiment tables of
//! EXPERIMENTS.md explain *why* a platform achieves a given TP (e.g. "the
//! target's incoming port is the bottleneck" on Figure 6, or "the source's
//! outgoing port" on Figure 2).

use std::collections::BTreeMap;

use steady_platform::{NodeId, Platform};
use steady_rational::Ratio;

use crate::flow::{FlowKind, FlowProblem, FlowSolution};
use crate::reduce::{ReduceProblem, ReduceSolution};

/// The kind of resource a steady-state occupation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// The outgoing (emission) port of a node.
    OutPort(NodeId),
    /// The incoming (reception) port of a node.
    InPort(NodeId),
    /// The compute unit of a node.
    Compute(NodeId),
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::OutPort(n) => write!(f, "out-port of {n}"),
            Resource::InPort(n) => write!(f, "in-port of {n}"),
            Resource::Compute(n) => write!(f, "compute unit of {n}"),
        }
    }
}

/// Per-resource occupations of a steady-state solution, all in `[0, 1]`.
#[derive(Debug, Clone, Default)]
pub struct OccupationReport {
    occupations: BTreeMap<Resource, Ratio>,
}

impl OccupationReport {
    /// Occupation of one resource (zero if the resource is unused).
    pub fn occupation(&self, resource: Resource) -> Ratio {
        self.occupations.get(&resource).cloned().unwrap_or_else(Ratio::zero)
    }

    /// All non-zero occupations.
    pub fn occupations(&self) -> &BTreeMap<Resource, Ratio> {
        &self.occupations
    }

    /// Resources whose occupation equals 1 exactly — these pin the throughput.
    pub fn saturated(&self) -> Vec<Resource> {
        self.occupations.iter().filter(|(_, occ)| **occ == Ratio::one()).map(|(r, _)| *r).collect()
    }

    /// The most loaded resource and its occupation, if any traffic exists.
    pub fn busiest(&self) -> Option<(Resource, Ratio)> {
        self.occupations
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(r, occ)| (*r, occ.clone()))
    }

    /// Human-readable table, one resource per line, sorted by occupation.
    pub fn render(&self, platform: &Platform) -> String {
        let mut rows: Vec<(&Resource, &Ratio)> = self.occupations.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let mut out = String::new();
        for (resource, occ) in rows {
            let name = match resource {
                Resource::OutPort(n) | Resource::InPort(n) | Resource::Compute(n) => {
                    platform.node(*n).name.clone()
                }
            };
            let saturated = if *occ == Ratio::one() { "  <- saturated" } else { "" };
            out.push_str(&format!("{resource} ({name}): {occ}{saturated}\n"));
        }
        out
    }

    fn insert_if_positive(&mut self, resource: Resource, occupation: Ratio) {
        if occupation.is_positive() {
            self.occupations.insert(resource, occupation);
        }
    }
}

/// Occupation report of a scatter, gather or gossip solution.
pub fn analyze_flow<K: FlowKind>(
    problem: &FlowProblem<K>,
    solution: &FlowSolution<K>,
) -> OccupationReport {
    let platform = problem.platform();
    let mut report = OccupationReport::default();
    for node in platform.node_ids() {
        let out: Ratio =
            platform.out_edges(node).iter().map(|&e| solution.edge_occupation(problem, e)).sum();
        report.insert_if_positive(Resource::OutPort(node), out);
        let inc: Ratio =
            platform.in_edges(node).iter().map(|&e| solution.edge_occupation(problem, e)).sum();
        report.insert_if_positive(Resource::InPort(node), inc);
    }
    report
}

/// Occupation report of a reduce solution (ports and compute units).
pub fn analyze_reduce(problem: &ReduceProblem, solution: &ReduceSolution) -> OccupationReport {
    let platform = problem.platform();
    let mut report = OccupationReport::default();
    for node in platform.node_ids() {
        report.insert_if_positive(Resource::OutPort(node), solution.send_occupation(problem, node));
        report.insert_if_positive(Resource::InPort(node), solution.recv_occupation(problem, node));
        report.insert_if_positive(
            Resource::Compute(node),
            solution.compute_occupation(problem, node),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GatherProblem, ScatterProblem};
    use steady_platform::generators::{self, figure2, figure6};
    use steady_rational::rat;

    #[test]
    fn figure2_bottleneck_is_the_source_out_port() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let report = analyze_flow(&problem, &solution);
        let saturated = report.saturated();
        assert!(
            saturated.contains(&Resource::OutPort(problem.source())),
            "source out-port should be saturated, got {saturated:?}"
        );
        let (busiest, occ) = report.busiest().unwrap();
        assert_eq!(occ, rat(1, 1));
        assert!(matches!(busiest, Resource::OutPort(_) | Resource::InPort(_)));
        let rendered = report.render(problem.platform());
        assert!(rendered.contains("saturated"));
        assert!(rendered.contains("Ps"));
    }

    #[test]
    fn star_gather_bottleneck_is_the_sink_in_port() {
        let (p, center, leaves) = generators::star(3, rat(1, 1));
        let problem = GatherProblem::new(p, leaves, center).unwrap();
        let solution = problem.solve().unwrap();
        let report = analyze_flow(&problem, &solution);
        assert!(report.saturated().contains(&Resource::InPort(center)));
        // Every leaf only emits 1/3 of the time.
        for &leaf in problem.sources() {
            assert_eq!(report.occupation(Resource::OutPort(leaf)), rat(1, 3));
        }
    }

    #[test]
    fn figure6_reduce_reports_compute_and_port_occupations() {
        let problem = ReduceProblem::from_instance(figure6()).unwrap();
        let solution = problem.solve().unwrap();
        let report = analyze_reduce(&problem, &solution);
        // At TP = 1 at least one resource is saturated.
        assert!(!report.saturated().is_empty());
        // All occupations are within [0, 1].
        for occ in report.occupations().values() {
            assert!(*occ <= rat(1, 1));
            assert!(occ.is_positive());
        }
        // The target computes the final combine, so its compute unit is busy.
        assert!(report.occupation(Resource::Compute(problem.target())).is_positive());
    }

    #[test]
    fn unused_resources_read_as_zero() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let report = analyze_flow(&problem, &solution);
        // The targets never emit anything.
        for &t in problem.targets() {
            assert_eq!(report.occupation(Resource::OutPort(t)), rat(0, 1));
        }
        assert_eq!(report.occupation(Resource::Compute(problem.source())), rat(0, 1));
    }

    #[test]
    fn resource_display_names() {
        assert_eq!(Resource::OutPort(NodeId(1)).to_string(), "out-port of P1");
        assert_eq!(Resource::InPort(NodeId(2)).to_string(), "in-port of P2");
        assert_eq!(Resource::Compute(NodeId(3)).to_string(), "compute unit of P3");
    }
}
