//! Flow-path decomposition of scatter solutions.
//!
//! The reduce machinery describes a steady-state solution compactly as a
//! weighted set of reduction trees (§4.3–4.4); the natural analogue for the
//! scatter is a weighted set of **routing paths**: for every target `P_k`, the
//! per-edge flows of commodity `m_k` decompose into at most `|E|` directed
//! paths from the source to `P_k`, whose weights sum to the throughput `TP`.
//! The decomposition is what makes the fixed-period approximation
//! (Proposition 4) applicable to scatters as well: rounding path weights keeps
//! the conservation law intact, whereas rounding raw edge flows would not.

use std::collections::{BTreeMap, VecDeque};

use steady_platform::{EdgeId, NodeId};
use steady_rational::Ratio;

use crate::error::CoreError;
use crate::flow::{ScatterProblem, ScatterSolution};

/// One routing path of a scatter solution, carrying `weight` messages of the
/// commodity of `targets[target_index]` per time-unit.
#[derive(Debug, Clone)]
pub struct WeightedPath {
    /// Index of the target (commodity) in the problem's target list.
    pub target_index: usize,
    /// Edges of the path, in order from the source to the target.
    pub edges: Vec<EdgeId>,
    /// Messages per time-unit routed along this path.
    pub weight: Ratio,
}

impl WeightedPath {
    /// Number of hops.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the path has no edges (never produced by the extraction).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Decomposes a scatter solution into weighted source → target paths.
///
/// For every commodity the extraction repeatedly finds a path of
/// positive-remaining-flow edges from the source to the target (BFS), assigns
/// it the minimum remaining flow along it, and subtracts.  Each step zeroes at
/// least one edge, so at most `|E|` paths are produced per commodity.  Flow
/// circulations that do not contribute to the throughput (possible in a
/// degenerate LP vertex, never useful) are ignored.
pub fn extract_paths(
    problem: &ScatterProblem,
    solution: &ScatterSolution,
) -> Result<Vec<WeightedPath>, CoreError> {
    let platform = problem.platform();
    let source = problem.source();
    let mut out = Vec::new();

    for (ti, &target) in problem.targets().iter().enumerate() {
        // Remaining flow of this commodity on every edge.
        let mut remaining: BTreeMap<EdgeId, Ratio> = BTreeMap::new();
        for ((e, k), v) in solution.flows() {
            if *k == ti && v.is_positive() {
                remaining.insert(*e, v.clone());
            }
        }
        let mut extracted = Ratio::zero();
        while extracted < *solution.throughput() {
            // BFS from the source along positive-flow edges.
            let mut pred: BTreeMap<NodeId, EdgeId> = BTreeMap::new();
            let mut queue = VecDeque::new();
            queue.push_back(source);
            while let Some(node) = queue.pop_front() {
                if node == target {
                    break;
                }
                for &e in platform.out_edges(node) {
                    let positive = remaining.get(&e).map(|v| v.is_positive()).unwrap_or(false);
                    let next = platform.edge(e).to;
                    if positive && next != source && !pred.contains_key(&next) {
                        pred.insert(next, e);
                        queue.push_back(next);
                    }
                }
            }
            if !pred.contains_key(&target) {
                return Err(CoreError::TreeExtraction {
                    reason: format!(
                        "commodity of {target}: only {extracted} of {} units decompose into paths",
                        solution.throughput()
                    ),
                });
            }
            // Reconstruct the path and its bottleneck weight.
            let mut edges = Vec::new();
            let mut cursor = target;
            while cursor != source {
                let e = pred[&cursor];
                edges.push(e);
                cursor = platform.edge(e).from;
            }
            edges.reverse();
            let mut weight = remaining[&edges[0]].clone();
            for e in &edges {
                weight = weight.min(remaining[e].clone());
            }
            // Never extract more than the throughput still unaccounted for.
            weight = weight.min(solution.throughput() - &extracted);
            for e in &edges {
                let slot = remaining.get_mut(e).expect("edge on the path has flow");
                *slot = &*slot - &weight;
            }
            extracted += &weight;
            out.push(WeightedPath { target_index: ti, edges, weight });
        }
    }
    Ok(out)
}

/// Verifies a path decomposition against its solution: every path runs from
/// the source to its commodity's target along existing edges, per-commodity
/// weights sum to `TP`, and the per-edge usage never exceeds the solution's
/// flows.
pub fn verify_path_set(
    problem: &ScatterProblem,
    solution: &ScatterSolution,
    paths: &[WeightedPath],
) -> Result<(), String> {
    let platform = problem.platform();
    let mut usage: BTreeMap<(EdgeId, usize), Ratio> = BTreeMap::new();
    let mut per_target: Vec<Ratio> = vec![Ratio::zero(); problem.targets().len()];

    for (pi, path) in paths.iter().enumerate() {
        if !path.weight.is_positive() {
            return Err(format!("path {pi} has non-positive weight"));
        }
        let Some(&target) = problem.targets().get(path.target_index) else {
            return Err(format!("path {pi} refers to an unknown commodity"));
        };
        if path.edges.is_empty() {
            return Err(format!("path {pi} is empty"));
        }
        let mut cursor = problem.source();
        for &e in &path.edges {
            let edge = platform.edge(e);
            if edge.from != cursor {
                return Err(format!("path {pi} is not contiguous at {cursor}"));
            }
            cursor = edge.to;
            *usage.entry((e, path.target_index)).or_insert_with(Ratio::zero) += &path.weight;
        }
        if cursor != target {
            return Err(format!("path {pi} ends at {cursor} instead of {target}"));
        }
        per_target[path.target_index] += &path.weight;
    }
    for (ti, total) in per_target.iter().enumerate() {
        if total != solution.throughput() {
            return Err(format!(
                "commodity {ti} decomposes into {total} instead of TP = {}",
                solution.throughput()
            ));
        }
    }
    for ((e, ti), used) in usage {
        if used > solution.flow(e, ti) {
            return Err(format!(
                "edge {:?} carries {used} of commodity {ti} but the solution only routes {}",
                e,
                solution.flow(e, ti)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use steady_platform::generators::{self, figure2};
    use steady_platform::NodeId;
    use steady_rational::rat;

    #[test]
    fn figure2_decomposes_into_few_paths() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let paths = extract_paths(&problem, &solution).unwrap();
        verify_path_set(&problem, &solution, &paths).unwrap();
        // At most |E| paths per commodity; here far fewer.
        assert!(paths.len() <= 2 * problem.platform().num_edges());
        // Every commodity is covered.
        for ti in 0..problem.targets().len() {
            assert!(paths.iter().any(|p| p.target_index == ti));
        }
        // Two-hop platform: every path has exactly two edges.
        for p in &paths {
            assert_eq!(p.len(), 2);
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn paper_figure2_solution_uses_both_routes_to_p0() {
        // The paper's published flow (Figure 2(b)) splits commodity m0 across
        // the Pa and Pb routes; the decomposition must return both paths.
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let platform = problem.platform();
        let edge = |a: usize, b: usize| platform.edge_between(NodeId(a), NodeId(b)).unwrap();
        let mut flows = std::collections::BTreeMap::new();
        flows.insert((edge(0, 1), 0usize), rat(3, 12));
        flows.insert((edge(0, 2), 0), rat(3, 12));
        flows.insert((edge(0, 2), 1), rat(6, 12));
        flows.insert((edge(1, 3), 0), rat(3, 12));
        flows.insert((edge(2, 3), 0), rat(3, 12));
        flows.insert((edge(2, 4), 1), rat(6, 12));
        let paper = ScatterSolution::from_flows(rat(1, 2), flows);
        let paths = extract_paths(&problem, &paper).unwrap();
        verify_path_set(&problem, &paper, &paths).unwrap();
        let m0_paths: Vec<_> = paths.iter().filter(|p| p.target_index == 0).collect();
        assert_eq!(m0_paths.len(), 2, "m0 must use both the Pa and the Pb route");
        let weights: Vec<Ratio> = m0_paths.iter().map(|p| p.weight.clone()).collect();
        assert!(weights.iter().all(|w| *w == rat(1, 4)));
    }

    #[test]
    fn star_decomposes_into_one_path_per_leaf() {
        let (p, center, leaves) = generators::star(4, rat(1, 1));
        let problem = ScatterProblem::new(p, center, leaves).unwrap();
        let solution = problem.solve().unwrap();
        let paths = extract_paths(&problem, &solution).unwrap();
        verify_path_set(&problem, &solution, &paths).unwrap();
        assert_eq!(paths.len(), 4);
        assert!(paths.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn verify_rejects_corrupted_path_sets() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        let paths = extract_paths(&problem, &solution).unwrap();

        // Dropping a path breaks the per-commodity total.
        let mut missing = paths.clone();
        missing.pop();
        assert!(verify_path_set(&problem, &solution, &missing).is_err());

        // Inflating a weight overshoots the edge flows.
        let mut inflated = paths.clone();
        inflated[0].weight = &inflated[0].weight + &rat(1, 1);
        assert!(verify_path_set(&problem, &solution, &inflated).is_err());

        // A non-contiguous path is rejected.
        let mut broken = paths;
        broken[0].edges.reverse();
        if broken[0].edges.len() > 1 {
            assert!(verify_path_set(&problem, &solution, &broken).is_err());
        }
    }
}
