//! The benchmark's whole import surface.
//!
//! Every program symbol `steady-perf` touches is re-exported here and
//! nowhere else, so a change that collapses or renames public API sees in
//! one file exactly what the benchmark needs kept — or what a follow-up
//! benchmark issue has to re-point.  Two rules hold for the list below:
//!
//! * the scheduler is always `SchedulerKind::default()`, never a named
//!   executor, so the benchmark follows whatever the program ships;
//! * the `_observed` twin and `RecordingObserver` are used by the traced
//!   pass only (`layers.rs`); the untraced numbers go through the plain
//!   entry points.

// The workspace's offline stand-in for `rand`: the generators take its `StdRng`.
pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};
pub use steady_core::{
    CoreError, GatherProblem, GossipProblem, PrefixProblem, ReduceProblem, ScatterProblem,
    ScatterSolution, SteadyProblem,
};
pub use steady_drift::{solve_steady_triaged, DriftConfig, DriftModel, DriftStats};
pub use steady_lp::{
    solve_certified_warm, solve_certified_warm_observed, solve_exact_auto, solve_exact_dual_auto,
    Certificate, CertifyError, CertifyOptions, RecordingObserver, SimplexOptions, SolvedBasis,
};
pub use steady_platform::generators::{
    clustered_scatter_instance, figure2, figure6, heterogeneous_star, random_connected, star,
    tiers, ClusteredConfig, RandomConfig, ScatterInstance, TiersConfig,
};
pub use steady_platform::{NodeId, Platform};
pub use steady_rational::{rat, Ratio};
pub use steady_sched::lane::LaneQueues;
pub use steady_sched::{Lane, LaneTask, NowFn, Popped, SchedulerKind, WorkerHooks};
pub use steady_service::{
    solve_query, Answer, CacheConfig, Collective, Query, Service, ServiceConfig, SolutionCache,
};
