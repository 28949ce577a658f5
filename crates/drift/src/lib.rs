//! Drift-aware incremental re-optimization for steady-state collectives.
//!
//! The optimal steady-state throughput of a collective is the value of an LP
//! over per-link costs, so when a platform's costs *drift* — congestion,
//! adaptive wireless reconfiguration, duty-cycled links — every observation
//! is a slightly different LP.  Solving each one from scratch wastes the
//! central fact about drift: small perturbations usually leave the old
//! optimal **basis** intact, or repairable in a handful of dual-simplex
//! pivots.  This crate turns that fact into a pipeline:
//!
//! * [`model`] — [`DriftModel`], a time-correlated cost model: bounded lazy
//!   random walks per edge over a fixed topology, with exact rational costs
//!   whose denominators stay bounded along the walk;
//! * [`triage`] — [`solve_steady_triaged`], the reuse ladder: try the cached
//!   basis as-is (**in-range**: zero pivots, re-price only), repair it with
//!   the **dual simplex** when the perturbation broke primal feasibility,
//!   fall back to a warm or cold **resolve** otherwise — with [`Triage`]
//!   naming the rung that answered and [`DriftStats`] counting outcomes.
//!
//! Every rung returns the bit-identical exact optimum of a cold solve; the
//! triage only changes the pivot bill.  The serving layer
//! (`steady-service`) builds its TTL/revalidation flow on this crate:
//! expired cache entries and drifted queries route through
//! [`solve_steady_triaged`] seeded with their structural class's last basis.
//!
//! # Example
//!
//! ```
//! use steady_drift::{solve_steady_triaged, DriftConfig, DriftModel, Triage};
//! use steady_core::ScatterProblem;
//! use steady_platform::generators::heterogeneous_star;
//! use steady_platform::NodeId;
//! use steady_rational::rat;
//!
//! let (platform, center, leaves) = heterogeneous_star(&[rat(1, 2), rat(1, 3), rat(1, 4)]);
//! let mut model = DriftModel::new(platform, DriftConfig::default(), 42);
//!
//! // First contact: a cold solve, remember the basis.
//! let problem = ScatterProblem::new(model.current(), center, leaves.clone()).unwrap();
//! let (_, report) = solve_steady_triaged(&problem, None).unwrap();
//! let mut basis = report.basis;
//!
//! // Drifted steps reuse it: in-range or repaired, never re-derived cold
//! // unless the drift was too violent.
//! for _ in 0..3 {
//!     let drifted = ScatterProblem::new(model.step(), center, leaves.clone()).unwrap();
//!     let (solution, report) = solve_steady_triaged(&drifted, basis.as_ref()).unwrap();
//!     assert!(solution.throughput().is_positive());
//!     basis = report.basis;
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod triage;

pub use model::{DriftConfig, DriftModel};
pub use triage::{
    solve_steady_triaged, solve_steady_triaged_observed, DriftStats, Triage, TriageReport,
};
