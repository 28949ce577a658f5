//! Discrete-event simulation of the one-port, full-overlap model.
//!
//! The paper's evaluation is analytical (LP-driven); this crate supplies the
//! dynamic counterpart used by the reproduction's experiments:
//!
//! * [`executor`] — plays a [`steady_core::schedule::PeriodicSchedule`] with
//!   the forwarding-buffer discipline of §3.4 (cold start, steady state,
//!   drain) and measures how many complete collective operations finish
//!   within a time horizon.  Comparing against the Lemma-1 bound `TP × K`
//!   reproduces Proposition 1 (asymptotic optimality) empirically.
//! * [`engine`] — a resource-constrained DAG simulator (transfers occupy both
//!   ports, computations occupy the compute unit) used to evaluate the
//!   baseline collective algorithms of `steady-baselines` under exactly the
//!   same platform model.
//! * [`sweep`] — a small parallel map over independent configurations, used
//!   by the benchmark harness for parameter sweeps.
//!
//! # Example
//!
//! ```
//! use steady_core::ScatterProblem;
//! use steady_platform::generators::figure2;
//! use steady_rational::rat;
//! use steady_sim::executor::execute_scatter_schedule;
//!
//! let problem = ScatterProblem::from_instance(figure2()).unwrap();
//! let solution = problem.solve().unwrap();
//! let schedule = solution.build_schedule(&problem).unwrap();
//! let report = execute_scatter_schedule(&problem, &schedule, solution.throughput(), &rat(600, 1));
//! assert!(report.completed_operations <= report.upper_bound);
//! assert!(report.efficiency() > rat(9, 10));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod executor;
pub mod sweep;

pub use engine::{simulate, Dag, DagOp, OpId, OpKind, SimError, SimResult};
pub use executor::{execute_reduce_schedule, execute_scatter_schedule, ExecutionReport};
pub use sweep::parallel_map;
