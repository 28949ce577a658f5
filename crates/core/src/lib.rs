//! Steady-state throughput optimization of scatter, gossip and reduce
//! collectives on heterogeneous platforms.
//!
//! This crate is the primary contribution of the reproduction of
//! *"Optimizing the steady-state throughput of scatter and reduce operations
//! on heterogeneous platforms"* (A. Legrand, L. Marchal, Y. Robert,
//! IPDPS 2004).  Instead of minimizing the makespan of a single collective
//! operation, a long series of identical operations is pipelined and the
//! sustained **throughput** — the number of collective operations initiated
//! per time-unit — is maximized on a heterogeneous platform graph operated
//! under the one-port, full-overlap model.
//!
//! # What the crate provides
//!
//! | Module | Paper section | Content |
//! |---|---|---|
//! | [`flow`] | §3, §3.5 | One flow LP for scatter `SSSP(G)`, gather (its transpose dual) and gossip `SSPA2A(G)`; exact throughput, periodic schedule |
//! | [`reduce`] | §4 | LP `SSR(G)` mixing transfers and computations |
//! | [`prefix`] | §6 (extension) | parallel-prefix series: per-rank reduce flows on shared ports |
//! | [`trees`] | §4.3–4.4 | Reduction-tree extraction (Lemma 2 / Theorem 1) |
//! | [`problem`] | — | Collective-generic build → solve → interpret pipeline with warm starts |
//! | [`coloring`] | §3.3 | Weighted bipartite matching decomposition |
//! | [`schedule`] | §3.3, §4.3 | Periodic schedules and one-port validation |
//! | [`approx`] | §4.6 | Fixed-period approximation (Proposition 4) |
//! | [`bounds`] | §3.4, §4.5 | Asymptotic optimality bounds (Lemma 1, Prop. 1–3) |
//!
//! # Quick start
//!
//! ```
//! use steady_core::ScatterProblem;
//! use steady_platform::generators::figure2;
//! use steady_rational::rat;
//!
//! // The toy platform of Figure 2: one source, two targets.
//! let problem = ScatterProblem::from_instance(figure2()).unwrap();
//! let solution = problem.solve().unwrap();
//! assert_eq!(*solution.throughput(), rat(1, 2));      // one scatter every 2 time-units
//!
//! // An explicit, one-port-feasible periodic schedule achieving it.
//! let schedule = solution.build_schedule(&problem).unwrap();
//! schedule.validate(problem.platform()).unwrap();
//! assert_eq!(schedule.throughput(), rat(1, 2));
//! ```
//!
//! Reduce operations work the same way but additionally expose the weighted
//! reduction trees realizing the optimal mix:
//!
//! ```
//! use steady_core::reduce::ReduceProblem;
//! use steady_platform::generators::figure6;
//! use steady_rational::rat;
//!
//! let problem = ReduceProblem::from_instance(figure6()).unwrap();
//! let solution = problem.solve().unwrap();
//! assert_eq!(*solution.throughput(), rat(1, 1));
//! let trees = solution.extract_trees(&problem).unwrap();
//! let total: steady_rational::Ratio = trees.iter().map(|t| t.weight.clone()).sum();
//! assert_eq!(total, rat(1, 1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod approx;
pub mod bounds;
pub mod coloring;
pub mod error;
pub mod flow;
pub mod paths;
pub mod prefix;
pub mod problem;
pub mod reduce;
pub mod schedule;
pub mod trees;

pub use analysis::{analyze_flow, analyze_reduce, OccupationReport, Resource};
pub use approx::{
    approximate_for_period, approximate_scatter_for_period, build_fixed_period_scatter_schedule,
    build_fixed_period_schedule, FixedPeriodPlan, FixedPeriodScatterPlan,
};
pub use bounds::SteadyStateBounds;
pub use coloring::{BipartiteLoad, ColoringError, LoadEdge, MatchingStep};
pub use error::CoreError;
pub use flow::{
    FlowKind, FlowProblem, FlowSolution, FlowVars, GatherProblem, GatherSolution, GossipProblem,
    GossipSolution, ScatterProblem, ScatterSolution,
};
pub use paths::{extract_paths, verify_path_set, WeightedPath};
pub use prefix::{PrefixProblem, PrefixSolution};
pub use problem::{
    solve_steady, solve_steady_warm, solve_steady_warm_observed, Certificate, SolveHealth,
    SolveReport, SteadyProblem,
};
pub use reduce::{Interval, ReduceProblem, ReduceSolution, Task};
pub use schedule::{CommSlot, ComputeOp, Payload, PeriodicSchedule, Transfer};
pub use trees::{ReductionTree, TreeOp, WeightedTree};

// Unit tests of the flow LP, one module per collective kind.
#[cfg(test)]
#[path = "flow_tests/gather.rs"]
mod gather;
#[cfg(test)]
#[path = "flow_tests/gossip.rs"]
mod gossip;
#[cfg(test)]
#[path = "flow_tests/scatter.rs"]
mod scatter;
