//! # steady-collectives
//!
//! A reproduction of *"Optimizing the steady-state throughput of scatter and
//! reduce operations on heterogeneous platforms"* (A. Legrand, L. Marchal,
//! Y. Robert — IPDPS 2004, INRIA research report RR-4872), packaged as a
//! workspace of focused crates and re-exported here as a single facade.
//!
//! Given a heterogeneous platform graph operated under the one-port,
//! full-overlap model, the library computes the **optimal steady-state
//! throughput** of pipelined series of scatter, personalized all-to-all
//! (gossip) and reduce operations, and constructs explicit periodic schedules
//! that achieve it — all in exact rational arithmetic, with asymptotic
//! optimality guarantees.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Content |
//! |---|---|---|
//! | [`rational`] | `steady-rational` | BigInt / exact rational arithmetic |
//! | [`lp`] | `steady-lp` | LP modelling, f64 + exact simplex, certification |
//! | [`platform`] | `steady-platform` | Platform graphs, topology generators, paper instances |
//! | [`core`] | `steady-core` | Scatter / gather / gossip / reduce / prefix LPs, schedules, reduction trees |
//! | [`sim`] | `steady-sim` | One-port discrete-event simulation, Prop.-1 executor |
//! | [`baselines`] | `steady-baselines` | Direct/binomial scatter, gather, flat/binomial/chain reduces |
//! | [`runtime`] | `steady-runtime` | Threaded message-passing execution with real payloads |
//! | [`drift`] | `steady-drift` | Cost-drift models (bounded random walks) and basis-reuse triage: in-range re-pricing, dual-simplex repair, warm/cold resolve |
//! | [`forecast`] | `steady-forecast` | Speculative pre-solving: exact drift envelopes, zero-pivot survival certification (`WillHold`/`MayExit`/`WillExit`), ranked presolve plans |
//! | [`service`] | `steady-service` | Query serving: canonical fingerprints, sharded cache with TTL epochs and drift-aware eviction, single-flight worker pool, drift-triaged solves, idle-time prefetching, deadline shedding with stale fallback, snapshot persistence |
//!
//! ## Quick start
//!
//! ```
//! use steady_collectives::prelude::*;
//!
//! // Figure 2 of the paper: one source scattering to two targets.
//! let problem = ScatterProblem::from_instance(figure2()).unwrap();
//! let solution = problem.solve().unwrap();
//! assert_eq!(*solution.throughput(), rat(1, 2));
//!
//! let schedule = solution.build_schedule(&problem).unwrap();
//! schedule.validate(problem.platform()).unwrap();
//! println!("{}", schedule.render(problem.platform()));
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `crates/bench` benchmarks for the reproduction of every figure of the
//! paper's evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use steady_baselines as baselines;
pub use steady_core as core;
pub use steady_drift as drift;
pub use steady_forecast as forecast;
pub use steady_lp as lp;
pub use steady_platform as platform;
pub use steady_rational as rational;
pub use steady_runtime as runtime;
pub use steady_service as service;
pub use steady_sim as sim;

/// Commonly used items, for `use steady_collectives::prelude::*`.
pub mod prelude {
    pub use steady_baselines::{
        binomial_reduce, binomial_scatter, chain_reduce, direct_gather, direct_gossip,
        direct_scatter, flat_tree_reduce, measure_pipelined_throughput,
    };
    pub use steady_core::analysis::{analyze_flow, analyze_reduce, OccupationReport, Resource};
    pub use steady_core::approx::{approximate_for_period, build_fixed_period_schedule};
    pub use steady_core::bounds::SteadyStateBounds;
    pub use steady_core::prefix::PrefixProblem;
    pub use steady_core::problem::{solve_steady, solve_steady_warm, SolveReport, SteadyProblem};
    pub use steady_core::reduce::ReduceProblem;
    pub use steady_core::schedule::PeriodicSchedule;
    pub use steady_core::CoreError;
    pub use steady_core::GatherProblem;
    pub use steady_core::GossipProblem;
    pub use steady_core::ScatterProblem;
    pub use steady_drift::{
        solve_steady_triaged, DriftConfig, DriftModel, DriftStats, Triage, TriageReport,
    };
    pub use steady_forecast::{
        ClassFate, ForecastConfig, Forecaster, PlannedSolve, PredictedTriage, PresolvePlan,
    };
    pub use steady_lp::{basis_still_optimal, solve_exact_dual_auto, DualOutcome, SolvedBasis};
    pub use steady_platform::generators::{
        figure2, figure5, figure6, figure9, tiers_reduce_instance, tiers_scatter_instance,
        RandomConfig, TiersConfig,
    };
    pub use steady_platform::topologies::{
        dumbbell_gather_instance, fat_tree_reduce_instance, fat_tree_scatter_instance,
        hypercube_prefix_instance, ring_gossip_instance, FatTreeConfig, GeometricConfig,
    };
    pub use steady_platform::{NodeId, Platform};
    pub use steady_rational::{int, rat, BigInt, Ratio};
    pub use steady_runtime::{run_gather, run_reduce, run_scatter, RunConfig};
    pub use steady_service::{
        fingerprint, run_drift_load, run_forecast_load, run_load, structural_fingerprint,
        Collective, DriftLoadConfig, DriftReport, ForecastLoadConfig, ForecastReport, LoadConfig,
        PrefetchJob, Query, ServeError, Served, ServedVia, Service, ServiceConfig, ServiceStats,
    };
    pub use steady_sim::{execute_reduce_schedule, execute_scatter_schedule, parallel_map};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let problem = ScatterProblem::from_instance(figure2()).unwrap();
        let solution = problem.solve().unwrap();
        assert_eq!(*solution.throughput(), rat(1, 2));
    }
}
