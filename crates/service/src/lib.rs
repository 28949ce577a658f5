//! Concurrent serving of steady-state throughput queries.
//!
//! The solver stack (`steady-core`) answers one question at a time, from
//! scratch.  This crate turns it into a query-serving engine for the traffic
//! pattern of a deployment — millions of requests, most of them repeats or
//! relabelings of platforms already seen — the same way the paper amortizes
//! one collective's cost over a long pipelined series:
//!
//! * [`mod@fingerprint`] — a **canonical, relabeling-invariant fingerprint** of
//!   `(platform, collective, roles)` built from Weisfeiler–Leman color
//!   refinement, so isomorphic queries share one cache key, plus a
//!   **cost-blind structural fingerprint** grouping platforms that differ
//!   only in edge costs into one warm-start class;
//! * [`cache`] — a **sharded LRU solution cache** (`parking_lot::RwLock`
//!   shards, atomic recency, hit/miss/eviction counters) whose entries carry
//!   an **epoch**: under a TTL they expire into *stale* — kept for
//!   revalidation, never silently served as fresh;
//! * [`engine`] — cache hits are answered **on the caller's thread**
//!   (validate, fingerprint, one lookup — no channel, no worker); everything
//!   else goes to a **worker pool with single-flight deduplication** over
//!   crossbeam channels: concurrent identical queries coalesce onto one
//!   in-flight LP solve instead of stampeding the solver; every solve runs
//!   the **drift triage ladder** (`steady-drift`) seeded with the cached
//!   simplex basis of its structural class — still-optimal bases re-price
//!   with zero pivots, primal-infeasible ones are repaired by the dual
//!   simplex; an optional demand-lane deadline sheds queries that waited
//!   too long (a shed *revalidation* falls back to its stale answer);
//! * [`persist`] — **snapshot persistence**: the cache's
//!   `fingerprint → throughput` entries *and* the per-structural-class basis
//!   seeds round-trip through a JSON file, so a restarted service keeps its
//!   warm set and triages its very first drifted solves;
//! * [`loadgen`] — a **load generator** replaying repetition-heavy query
//!   mixes (including independent cost redraws, a time-correlated
//!   random-walk drift family and a lazier *forecastable* drift family)
//!   from several client threads, plus dedicated scenario runners: drift
//!   ([`run_drift_load`], triage split + exactness) and forecast
//!   ([`run_forecast_load`], speculative pre-solving hit rate).
//!
//! The engine additionally runs an **idle-time prefetch loop**: a
//! `steady-forecast` presolve plan scheduled via
//! [`Service::schedule_prefetch`] is drained by workers that find the job
//! channel empty, so predicted-next platforms are solved *before* their
//! queries arrive — landing as ordinary cache hits, `Ratio`-identical to
//! cold solves — and the cache's LRU eviction is **drift-aware**: entries
//! whose structural class has no surviving basis seed go first.
//!
//! # Example
//!
//! ```
//! use steady_service::{Collective, Query, Service, ServiceConfig, ServedVia};
//! use steady_platform::generators::figure2;
//! use steady_rational::rat;
//!
//! let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
//! let instance = figure2();
//! let query = Query {
//!     platform: instance.platform,
//!     collective: Collective::Scatter { source: instance.source, targets: instance.targets },
//! };
//!
//! let first = service.query(query.clone()).unwrap();
//! assert_eq!(first.via, ServedVia::Solve);
//! assert_eq!(first.answer.throughput, rat(1, 2));
//!
//! let second = service.query(query).unwrap();
//! assert_eq!(second.via, ServedVia::Cache);
//! assert_eq!(second.answer.throughput, rat(1, 2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod fingerprint;
pub mod flight;
pub mod ledger;
pub mod loadgen;
pub mod metrics;
pub mod obs;
pub mod persist;
pub mod query;
pub mod sync;

pub use cache::{CacheConfig, CacheStats, Lookup, SolutionCache};
pub use engine::{
    PrefetchJob, ServeError, ServeResult, Served, ServedVia, Service, ServiceConfig, ServiceStats,
};
pub use fingerprint::{fingerprint, permuted_platform, structural_fingerprint, Fingerprint};
pub use loadgen::{
    forecastable_drift_config, query_mix, run_drift_load, run_forecast_load, run_load, stage_table,
    DriftLoadConfig, DriftReport, ForecastLoadConfig, ForecastReport, LoadConfig, LoadReport,
};
pub use metrics::{
    Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, METRICS_SCHEMA_VERSION,
};
pub use obs::{
    chrome_trace_json, ClientSpan, Clock, ManualClock, QueryTrace, TraceRing, WallClock,
};
pub use query::{solve_query, Answer, Collective, Query};
pub use steady_sched::{Lane, LaneCounters};

/// Error produced while validating or solving a query.
///
/// The payload is a rendered message: errors cross thread and channel
/// boundaries and fan out to coalesced waiters, so they must be `Clone`,
/// which the underlying solver errors are not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError(pub String);

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServiceError {}
