//! The serving engine: a worker pool with single-flight deduplication,
//! drift-triaged solves, TTL revalidation and deadline shedding.
//!
//! A query's **front half** runs on the thread that asks
//! ([`Service::query`] / [`Service::submit`]): validate, fingerprint, and
//! consult the [`SolutionCache`] at the current **epoch**.  A fresh entry —
//! the dominant outcome, since one solved LP answers a long series of
//! repeats — is returned right there: no channel, no task, no worker wake.
//! An entry older than [`ServiceConfig::ttl`] epochs is kept as a *stale*
//! fallback and, like a miss, handed to the workers together with what the
//! front half computed.
//!
//! Work dispatch is delegated to the `steady-sched` subsystem: misses are
//! admitted onto three strict priority lanes (demand > revalidation >
//! prefetch) and drained by its thread-per-worker pool
//! ([`ServiceConfig::workers`] threads blocking on the shared lanes).  A
//! worker that picks up a missed query:
//!
//! 1. (revalidation lane only — proactive refreshes have no caller thread)
//!    runs the same front half itself;
//! 2. checks the **in-flight table**: if an identical (isomorphic) query is
//!    already being solved, the reply channel is parked on that solve
//!    instead of stampeding the LP — *single-flight* deduplication — and a
//!    solve that finished while the query sat in the lane is served from
//!    the cache by the re-check under the table's lock;
//! 3. solves through the **drift triage ladder**
//!    ([`steady_drift::solve_steady_triaged`]) seeded with the cached
//!    [`SolvedBasis`] of the query's structural class (same topology and
//!    roles, any edge costs): a still-optimal basis re-prices with zero
//!    pivots (`in_range`), a primal-infeasible one is repaired by the dual
//!    simplex (`dual_repairs`), anything else resolves warm or cold — then
//!    publishes the answer and its final basis and fans the result out to
//!    every parked waiter.
//!
//! Workers with nothing to do don't just block: the **prefetch lane**
//! ([`Service::schedule_prefetch`]) holds platforms a forecaster predicts
//! the drift will produce next, and a worker takes one only when the demand
//! and revalidation lanes are empty, pre-solving it through the same triage
//! ladder and installing the answer as an ordinary epoch-stamped cache
//! entry.  A demand query that lands on one is counted as a
//! `prefetch_hit`; speculative work is strictly idle-time (lane priority
//! guarantees demand wins the workers) and strictly advisory (a wrong
//! prediction wastes idle cycles, never correctness — the entry it
//! installed is a *correct* answer to a question nobody asked).  Queued
//! prefetch work is also cancellable in bulk ([`Service::cancel_prefetch`])
//! and sheddable by deadline ([`ServiceConfig::demand_deadline`] puts a
//! per-task deadline on the demand lane instead).
//!
//! That deadline is the engine's one way to shed: a demand query still
//! queued when it passes (or cancelled in its lane) is never run.
//! Its caller gets [`ServeError::Shed`] — unless the query was revalidating
//! an expired entry, which is then served as-is
//! ([`ServedVia::StaleFallback`]): stale data beats no data.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use steady_core::problem::SolvedBasis;
use steady_platform::Platform;

use steady_drift::Triage;
use steady_sched::{Lane, LaneTask, NowFn, Running, Scheduler, ThreadPerWorker, WorkerHooks};

use crate::cache::{CacheConfig, CacheStats, Lookup, SolutionCache};
use crate::fingerprint::Fingerprint;
use crate::flight::{Flight, SingleFlight};
use crate::ledger::PrefetchLedger;
use crate::metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
use crate::obs::{caller_ring, Clock, QueryTrace, Ring, TraceSink, WallClock, INLINE_LANE};
use crate::persist;
use crate::query::{solve_prepared, Answer, Query};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::channel::{unbounded, Receiver, Sender};
use crate::sync::Mutex;
use crate::ServiceError;

/// Upper bound on remembered warm-start bases (one per structural class);
/// beyond it, new classes are simply not remembered.  A basis is a few
/// hundred `usize`s, so this caps the table at a few MB even under
/// adversarial traffic that never repeats a structure.
const MAX_CACHED_BASES: usize = 4096;

/// Per-solve event-timeline capacity of a traced query's solve, whose
/// timeline yields the trace's solver phase breakdown: events beyond this
/// are folded into the health aggregate but not kept (the recording marks
/// itself truncated).  Big enough for any realistic pivot trail, small
/// enough to bound a pathological solve's memory.
const SOLVER_TIMELINE_CAPACITY: usize = 8192;

/// One unit of speculative work: a query a forecaster predicts the drift
/// will produce, pre-solved by idle workers (see
/// [`Service::schedule_prefetch`]).
#[derive(Debug, Clone)]
pub struct PrefetchJob {
    /// The predicted future query.
    pub query: Query,
    /// `true` when the forecaster expects this platform to *exit* the
    /// cached basis's optimality range (a repair-rung solve) — counted in
    /// [`ServiceStats::predicted_exits`].
    pub predicted_exit: bool,
}

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker threads (0 means one per available CPU).
    pub workers: usize,
    /// Solution-cache sizing.
    pub cache: CacheConfig,
    /// Whether answers include an explicit periodic schedule (slower solves,
    /// richer answers).
    pub build_schedules: bool,
    /// Cache time-to-live in **epochs** (see [`Service::advance_epoch`]):
    /// `None` means entries never expire; `Some(t)` keeps an entry fresh for
    /// `t` epochs beyond the one it was inserted in, after which lookups
    /// classify it as *expired* and route it through drift triage — the
    /// cached basis of its structural class revalidates it, usually with
    /// zero pivots — instead of dropping it.
    pub ttl: Option<u64>,
    /// Optional snapshot file (see [`Service::snapshot`]) whose entries are
    /// loaded into the cache on start, restoring the previous warm set.
    pub preload_from: Option<PathBuf>,
    /// Whether per-query lifecycle tracing is on (see [`crate::obs`]).  Off
    /// by default; the always-on metrics histograms (solver health included)
    /// do not depend on it.  A traced query's solve also records its solver
    /// events (see [`steady_lp::instrument`]), so its trace carries the
    /// solver's per-phase time breakdown into the Perfetto export.  When
    /// off, the per-query cost of the tracing path is one branch.
    pub tracing: bool,
    /// Completed traces buffered per worker before the oldest is dropped
    /// (only meaningful with `tracing`); drops are counted, never blocking.
    pub trace_capacity: usize,
    /// Optional per-task deadline for the demand lane: a query still queued
    /// this long after submission is shed (counted in
    /// [`ServiceStats::demand_timeouts`]) instead of run — bounding how long
    /// a backlogged service keeps a caller waiting.  A shed revalidation
    /// serves its expired answer ([`ServedVia::StaleFallback`]); any other
    /// shed query gets [`ServeError::Shed`].  `None` (the default) never
    /// sheds by age.
    pub demand_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            cache: CacheConfig::default(),
            build_schedules: false,
            ttl: None,
            preload_from: None,
            tracing: false,
            trace_capacity: 4096,
            demand_deadline: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the snapshot file to preload the cache from on start.
    pub fn preload(mut self, path: impl Into<PathBuf>) -> Self {
        self.preload_from = Some(path.into());
        self
    }

    /// Turns on per-query lifecycle tracing (see [`crate::obs`]).
    pub fn traced(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// The same as [`ServiceConfig::traced`]: solver events are recorded
    /// exactly for traced queries.  It stays because
    /// `benchmark/src/workloads.rs` builds its traced service through it,
    /// until that is re-pointed at [`ServiceConfig::traced`].
    pub fn with_solver_events(self) -> Self {
        self.traced()
    }

    /// Sets a queueing deadline for demand queries (see
    /// [`ServiceConfig::demand_deadline`]).
    pub fn with_demand_deadline(mut self, deadline: Duration) -> Self {
        self.demand_deadline = Some(deadline);
        self
    }
}

/// How a particular response was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// Found fresh in the solution cache.
    Cache,
    /// Solved by the responding worker (cold, warm or triaged).
    Solve,
    /// A TTL-expired cache entry revalidated through drift triage.
    Revalidated,
    /// Parked on another query's in-flight solve (single-flight dedup).
    Coalesced,
    /// A TTL-expired entry served as-is because its revalidation was shed
    /// (demand deadline passed, or cancelled) — stale data beats no data.
    StaleFallback,
}

impl ServedVia {
    /// Short lowercase label, used for client spans in the trace export.
    pub fn name(&self) -> &'static str {
        match self {
            ServedVia::Cache => "cache",
            ServedVia::Solve => "solve",
            ServedVia::Revalidated => "revalidated",
            ServedVia::Coalesced => "coalesced",
            ServedVia::StaleFallback => "stale-fallback",
        }
    }
}

/// A successful response: the (shared) answer plus how it was obtained.
#[derive(Debug, Clone)]
pub struct Served {
    /// The answer, shared with the cache and any coalesced waiters.
    pub answer: Arc<Answer>,
    /// How this particular response was produced.
    pub via: ServedVia,
}

/// Why a query was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The query was invalid, the problem infeasible, or the solve failed.
    Failed(ServiceError),
    /// The query out-waited [`ServiceConfig::demand_deadline`] in the
    /// demand lane, or was cancelled there, and had no expired answer to
    /// fall back to: the service chose not to run it.  Retrying later is
    /// reasonable — nothing is wrong with the query itself.
    Shed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Failed(e) => write!(f, "{e}"),
            ServeError::Shed => write!(f, "shed: demand deadline passed or query cancelled"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServiceError> for ServeError {
    fn from(e: ServiceError) -> Self {
        ServeError::Failed(e)
    }
}

/// Result type delivered on a response channel.
pub type ServeResult = Result<Served, ServeError>;

/// Counters describing a service's traffic so far.  Cache counters are
/// folded in: `hits + misses == queries` for well-formed queries (coalesced
/// queries count as misses — they reached the in-flight table).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Queries whose front half ran (on their caller's thread, or on a
    /// worker for revalidation-lane refreshes).
    pub queries: u64,
    /// Responses served straight from the cache.
    pub hits: u64,
    /// Cache lookups that found nothing.
    pub misses: u64,
    /// Queries parked on an identical in-flight solve.
    pub coalesced: u64,
    /// Cold LP solves attempted (successful or not).
    pub solves: u64,
    /// Successful solves warm-started from a cached structural-class basis
    /// that installed cleanly (`in_range + dual_repairs +` warm resolves).
    pub warm_solves: u64,
    /// Successful from-scratch solves (no usable basis for the structural
    /// class).  `warm_solves + cold_solves <= solves`; the difference is
    /// failed attempts, which record neither pivots nor latency.
    pub cold_solves: u64,
    /// Solves that entered drift triage with a prior basis for their
    /// structural class — the denominator of the basis-reuse fraction.
    pub triaged: u64,
    /// Triaged solves whose cached basis was still optimal: the answer was
    /// re-priced with **zero pivots**.
    pub in_range: u64,
    /// Triaged solves repaired in place by the dual simplex.
    pub dual_repairs: u64,
    /// Cache lookups that found a TTL-expired entry (routed to
    /// revalidation; see [`ServiceConfig::ttl`]).
    pub expired: u64,
    /// Solves that revalidated an expired entry (as opposed to answering a
    /// brand-new fingerprint).
    pub revalidations: u64,
    /// Expired entries served as-is because their revalidation was shed
    /// (demand deadline passed, or cancelled).
    pub stale_served: u64,
    /// Simplex pivots spent in warm-started solves.
    pub warm_pivots: u64,
    /// Simplex pivots spent in from-scratch solves.
    pub cold_pivots: u64,
    /// Wall-clock nanoseconds spent in warm-started solves.
    pub warm_solve_nanos: u64,
    /// Wall-clock nanoseconds spent in from-scratch solves.
    pub cold_solve_nanos: u64,
    /// Demand queries answered `Err(Shed)`: shed by the demand deadline or
    /// cancelled, with no expired answer to fall back to.
    pub shed: u64,
    /// Error responses delivered (bad query, infeasible problem or panicked
    /// solve; coalesced waiters on a failed solve count once each).
    pub errors: u64,
    /// Speculative solves completed by idle workers and installed into the
    /// cache (see [`Service::schedule_prefetch`]).
    pub prefetched: u64,
    /// Demand queries answered from a prefetched entry (each prefetched
    /// entry counts at most once — its first demand landing; afterwards it
    /// is an ordinary cache entry).
    pub prefetch_hits: u64,
    /// Prefetched entries that a demand solve had to re-derive anyway (the
    /// entry was evicted or expired before any demand query landed on it).
    pub prefetch_wasted: u64,
    /// Scheduled prefetch jobs whose platform the forecaster predicted to
    /// exit the cached basis's optimality range.
    pub predicted_exits: u64,
    /// Demand queries shed because they out-waited
    /// [`ServiceConfig::demand_deadline`] in the queue.
    pub demand_timeouts: u64,
    /// Prefetch tasks cancelled (or dropped at shutdown/expiry) before they
    /// ran — see [`Service::cancel_prefetch`].
    pub prefetch_cancelled: u64,
    /// Evictions where the drift-aware preference overrode plain LRU (see
    /// [`CacheStats::preferred_evictions`]).
    pub preferred_evictions: u64,
    /// Answers inserted into the cache.
    pub insertions: u64,
    /// Cache entries displaced by LRU eviction.
    pub evictions: u64,
    /// Answers currently cached.
    pub cached_entries: usize,
}

impl ServiceStats {
    /// Fraction of cache lookups that hit (0 when none happened).
    pub fn hit_ratio(&self) -> f64 {
        CacheStats { hits: self.hits, misses: self.misses, ..CacheStats::default() }.hit_ratio()
    }

    /// Mean simplex pivots per warm-started solve (0 when none ran).
    pub fn mean_warm_pivots(&self) -> f64 {
        mean(self.warm_pivots, self.warm_solves)
    }

    /// Mean simplex pivots per from-scratch solve (0 when none ran).
    pub fn mean_cold_pivots(&self) -> f64 {
        mean(self.cold_pivots, self.cold_solves)
    }

    /// Mean wall-clock microseconds per warm-started solve (0 when none ran).
    pub fn mean_warm_solve_micros(&self) -> f64 {
        mean(self.warm_solve_nanos, self.warm_solves) / 1_000.0
    }

    /// Mean wall-clock microseconds per from-scratch solve (0 when none ran).
    pub fn mean_cold_solve_micros(&self) -> f64 {
        mean(self.cold_solve_nanos, self.cold_solves) / 1_000.0
    }

    /// Fraction of triaged solves (those with a prior basis) that reused it
    /// via `InRange` or `DualRepair` — the drift pipeline's headline number
    /// (0 when nothing was triaged).
    pub fn triage_reuse_fraction(&self) -> f64 {
        if self.triaged == 0 {
            0.0
        } else {
            (self.in_range + self.dual_repairs) as f64 / self.triaged as f64
        }
    }

    /// Of the demand queries that needed fresh work (a solve or a prefetch
    /// landing), the fraction answered from a prefetched entry:
    /// `prefetch_hits / (prefetch_hits + solves)`, 0 when neither happened.
    /// This is the forecaster's headline number: how much of the drift was
    /// predicted off the critical path.
    pub fn prefetch_hit_fraction(&self) -> f64 {
        let total = self.prefetch_hits + self.solves;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }

    /// Counter increments between the `earlier` snapshot and this one, for
    /// isolating one load run on a service that has already served traffic.
    /// `cached_entries` is a gauge, not a counter, and keeps this snapshot's
    /// value.
    pub fn since(&self, earlier: &ServiceStats) -> ServiceStats {
        ServiceStats {
            queries: self.queries.saturating_sub(earlier.queries),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            solves: self.solves.saturating_sub(earlier.solves),
            warm_solves: self.warm_solves.saturating_sub(earlier.warm_solves),
            cold_solves: self.cold_solves.saturating_sub(earlier.cold_solves),
            triaged: self.triaged.saturating_sub(earlier.triaged),
            in_range: self.in_range.saturating_sub(earlier.in_range),
            dual_repairs: self.dual_repairs.saturating_sub(earlier.dual_repairs),
            expired: self.expired.saturating_sub(earlier.expired),
            revalidations: self.revalidations.saturating_sub(earlier.revalidations),
            stale_served: self.stale_served.saturating_sub(earlier.stale_served),
            warm_pivots: self.warm_pivots.saturating_sub(earlier.warm_pivots),
            cold_pivots: self.cold_pivots.saturating_sub(earlier.cold_pivots),
            warm_solve_nanos: self.warm_solve_nanos.saturating_sub(earlier.warm_solve_nanos),
            cold_solve_nanos: self.cold_solve_nanos.saturating_sub(earlier.cold_solve_nanos),
            shed: self.shed.saturating_sub(earlier.shed),
            errors: self.errors.saturating_sub(earlier.errors),
            prefetched: self.prefetched.saturating_sub(earlier.prefetched),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            prefetch_wasted: self.prefetch_wasted.saturating_sub(earlier.prefetch_wasted),
            predicted_exits: self.predicted_exits.saturating_sub(earlier.predicted_exits),
            demand_timeouts: self.demand_timeouts.saturating_sub(earlier.demand_timeouts),
            prefetch_cancelled: self.prefetch_cancelled.saturating_sub(earlier.prefetch_cancelled),
            preferred_evictions: self
                .preferred_evictions
                .saturating_sub(earlier.preferred_evictions),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            cached_entries: self.cached_entries,
        }
    }
}

fn mean(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// What the front half ([`look_up`]) learned about a query it could not
/// answer, carried to the worker so nothing is computed or counted twice.
struct Missed {
    fingerprint: Fingerprint,
    /// The epoch the lookup judged freshness at; the re-check under the
    /// single-flight lock judges at the same one.
    epoch: u64,
    /// The expired answer this query revalidates, if any — served as the
    /// fallback when the query is shed before it runs, and the reason the
    /// leader's response is labelled [`ServedVia::Revalidated`].
    stale: Option<Arc<Answer>>,
    /// When the lookup finished ([`Clock`] nanoseconds): the start of the
    /// queue wait.
    lookup_done_nanos: u64,
}

/// A validated, fingerprinted query that missed the cache (or found an
/// expired entry) and needs the workers.
struct Job {
    query: Query,
    reply: Sender<ServeResult>,
    /// When the query reached the service ([`Clock`] nanoseconds); always
    /// stamped, because the end-to-end histograms are on whether or not
    /// per-query tracing is.
    submitted_nanos: u64,
    /// The query's lifecycle trace — `None` when tracing is off, so the
    /// disabled path allocates nothing and costs one branch.
    trace: Option<QueryTrace>,
    missed: Missed,
}

/// A query parked on another query's in-flight solve.  The platform is kept
/// so the fan-out can strip the schedule when the waiter's numbering differs
/// from the solver's (see [`tailor`]).
struct Waiter {
    platform: Platform,
    reply: Sender<ServeResult>,
    /// As `Job::submitted_nanos`; feeds the coalesced end-to-end histogram
    /// at fan-out.
    submitted_nanos: u64,
    /// The parked query's trace, completed by the solving worker.
    trace: Option<QueryTrace>,
}

/// Adapts a shared answer to one caller: schedules are expressed in the node
/// numbering of the platform they were solved on, so a caller holding an
/// isomorphic but differently numbered platform gets the answer with the
/// schedule stripped (throughput is numbering-invariant and always served).
fn tailor(answer: &Arc<Answer>, platform: &Platform) -> Arc<Answer> {
    if answer.schedule.is_none() || answer.platform == *platform {
        Arc::clone(answer)
    } else {
        Arc::new(Answer {
            fingerprint: answer.fingerprint,
            platform: answer.platform.clone(),
            throughput: answer.throughput.clone(),
            schedule: None,
        })
    }
}

/// What the scheduler dispatches: the engine's one work-item type, with one
/// variant per lane.  (Idle detection and the prefetch drain live in
/// `steady-sched`'s `lane` module.)
enum WorkItem {
    /// An interactive query the caller's thread could not answer from the
    /// cache (demand lane).  Boxed: a job carries its query and trace by
    /// value, and lane tasks are moved through the lane queues.
    Demand(Box<Job>),
    /// A proactive TTL refresh (revalidation lane), scheduled by
    /// [`Service::schedule_revalidation`]: nobody waits on it, so its whole
    /// lifecycle — front half included — starts when a worker picks it up.
    Revalidate(Query),
    /// A speculative pre-solve (prefetch lane).
    Prefetch(PrefetchJob),
}

/// The per-stage latency histograms, always on (recording is one relaxed
/// atomic add; see [`crate::metrics`]).  All samples are [`Clock`]
/// nanoseconds.  Stage spans are adjacent — lookup → queue → flight →
/// solve → publish — so a query's stage samples sum to its
/// end-to-end latency within clock resolution.  A cache hit is answered on
/// its caller's thread and stops after the lookup: it samples `lookup`,
/// `publish` and `e2e_hit`, and no queue or lane wait.
struct StageMetrics {
    /// Fingerprint + cache lookup: submit → lookup done (every well-formed
    /// query; on the caller's thread for demand traffic).
    lookup: Arc<Histogram>,
    /// Demand-lane wait, the queue stage: lookup done (= enqueue) → worker
    /// pickup.  Demand queries the lookup could not answer only, so for
    /// demand-only traffic its count is `queries - hits`.  The lanes have
    /// one wait histogram each, so priority inversion (prefetch delaying
    /// demand) is directly visible.
    lane_demand_wait: Arc<Histogram>,
    /// Revalidation-lane wait (see `lane_demand_wait`).
    lane_revalidation_wait: Arc<Histogram>,
    /// Prefetch-lane wait (see `lane_demand_wait`).
    lane_prefetch_wait: Arc<Histogram>,
    /// Warm-started solves (triage reused or reseeded a basis); its count
    /// and sum are [`ServiceStats::warm_solves`] and
    /// [`ServiceStats::warm_solve_nanos`].
    solve_warm: Arc<Histogram>,
    /// From-scratch solves; count and sum as for `solve_warm`.
    solve_cold: Arc<Histogram>,
    /// Basis/cache publication and reply fan-out after a solve; for a hit,
    /// prefetch attribution and tailoring after the lookup.
    publish: Arc<Histogram>,
    /// End-to-end latency of cache hits (fresh or flight-ready).
    e2e_hit: Arc<Histogram>,
    /// End-to-end latency of queries answered by a warm solve.
    e2e_warm: Arc<Histogram>,
    /// End-to-end latency of queries answered by a cold solve.
    e2e_cold: Arc<Histogram>,
    /// End-to-end latency of queries coalesced onto another solve.
    e2e_coalesced: Arc<Histogram>,
    /// Simplex pivots per successful solve (all phases; from the solver's
    /// event-stream health aggregate, so it is always on).
    solver_pivots: Arc<Histogram>,
    /// Degenerate (zero-progress) pivots per successful solve.
    solver_degenerate_pivots: Arc<Histogram>,
    /// Pivots taken under Bland's anti-cycling rule per successful solve
    /// (non-zero samples mean pricing degraded off Dantzig's rule).
    solver_bland_pivots: Arc<Histogram>,
    /// Peak eta-file length per successful solve (0 when the solve pivoted
    /// nothing, e.g. an in-range drift re-price).
    solver_peak_eta: Arc<Histogram>,
    /// Basis refactorizations per successful solve.
    solver_refactorizations: Arc<Histogram>,
}

impl StageMetrics {
    fn new(registry: &MetricsRegistry) -> StageMetrics {
        StageMetrics {
            lookup: registry.histogram("stage_lookup_nanos"),
            lane_demand_wait: registry.histogram("lane_demand_wait_nanos"),
            lane_revalidation_wait: registry.histogram("lane_revalidation_wait_nanos"),
            lane_prefetch_wait: registry.histogram("lane_prefetch_wait_nanos"),
            solve_warm: registry.histogram("stage_solve_warm_nanos"),
            solve_cold: registry.histogram("stage_solve_cold_nanos"),
            publish: registry.histogram("stage_publish_nanos"),
            e2e_hit: registry.histogram("e2e_hit_nanos"),
            e2e_warm: registry.histogram("e2e_solve_warm_nanos"),
            e2e_cold: registry.histogram("e2e_solve_cold_nanos"),
            e2e_coalesced: registry.histogram("e2e_coalesced_nanos"),
            solver_pivots: registry.histogram("solver_pivots"),
            solver_degenerate_pivots: registry.histogram("solver_degenerate_pivots"),
            solver_bland_pivots: registry.histogram("solver_bland_pivots"),
            solver_peak_eta: registry.histogram("solver_peak_eta"),
            solver_refactorizations: registry.histogram("solver_refactorizations"),
        }
    }

    /// Records one task's enqueue-to-pickup wait in its lane's histogram.
    fn record_lane_wait(&self, lane: Lane, nanos: u64) {
        match lane {
            Lane::Demand => self.lane_demand_wait.record(nanos),
            Lane::Revalidation => self.lane_revalidation_wait.record(nanos),
            Lane::Prefetch => self.lane_prefetch_wait.record(nanos),
        }
    }

    /// Folds one successful solve's health aggregate into the solver
    /// histograms (always on: the aggregate rides every
    /// [`steady_drift::TriageReport`]).
    fn record_solver_health(&self, health: &steady_lp::SolveHealth) {
        self.solver_pivots.record(health.pivots as u64);
        self.solver_degenerate_pivots.record(health.degenerate_pivots as u64);
        self.solver_bland_pivots.record(health.bland_pivots as u64);
        self.solver_peak_eta.record(health.peak_eta as u64);
        self.solver_refactorizations.record(health.refactorizations as u64);
    }
}

struct Shared {
    cache: SolutionCache,
    /// Single-flight deduplication: at most one in-flight solve per key,
    /// with the waiters parked on it (see [`crate::flight`]).
    flight: SingleFlight<Waiter>,
    /// Winning basis per structural class (cost-blind fingerprint), used to
    /// triage every solve of a platform that differs only in edge costs.
    bases: Mutex<HashMap<u64, SolvedBasis>>,
    build_schedules: bool,
    /// Current cache epoch; advanced by [`Service::advance_epoch`].
    epoch: AtomicU64,
    /// Cache TTL in epochs (see [`ServiceConfig::ttl`]).
    ttl: Option<u64>,
    /// The time source every timestamp and histogram sample derives from —
    /// the seam where a simulated clock plugs in
    /// ([`Service::start_with_clock`]).
    clock: Arc<dyn Clock>,
    /// Per-worker and caller-side rings of completed query traces (see
    /// [`crate::obs`]).
    sink: TraceSink,
    /// Always-on per-stage latency histograms.
    stage: StageMetrics,
    /// The registry the stage histograms live in, snapshotted by
    /// [`Service::metrics`].
    registry: MetricsRegistry,
    /// Cache keys installed by speculative solves that no demand query has
    /// landed on yet; a demand hit claims a key as a `prefetch_hit`, a
    /// demand *solve* claims it as `prefetch_wasted` (see [`crate::ledger`]).
    ledger: PrefetchLedger,
    queries: AtomicU64,
    coalesced: AtomicU64,
    solves: AtomicU64,
    prefetched: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
    predicted_exits: AtomicU64,
    triaged: AtomicU64,
    in_range: AtomicU64,
    dual_repairs: AtomicU64,
    revalidations: AtomicU64,
    stale_served: AtomicU64,
    warm_pivots: AtomicU64,
    cold_pivots: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
}

impl Shared {
    /// The current cache epoch.
    fn now(&self) -> u64 {
        // relaxed: the epoch is a monotonically advanced stamp and readers
        // only need *some* recent value — a lagging read makes an entry look
        // at most one advance older, which TTL semantics tolerate by design.
        self.epoch.load(Ordering::Relaxed)
    }
}

/// Increments a monotonic statistics counter.
fn bump(counter: &AtomicU64) {
    bump_by(counter, 1);
}

/// Adds `n` to a monotonic statistics counter.
fn bump_by(counter: &AtomicU64, n: u64) {
    // relaxed: stat counters are independent monotonic tallies read only by
    // `stats()` snapshots, which tolerate small cross-counter skew; nothing
    // synchronizes-with them.
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Reads a statistics counter for a snapshot.
fn gauge(counter: &AtomicU64) -> u64 {
    // relaxed: point-in-time snapshot read of an independent counter (see
    // `bump_by`); no ordering with other memory is implied or needed.
    counter.load(Ordering::Relaxed)
}

/// The engine's side of the scheduler seam: `steady-sched` owns the lanes
/// and the worker threads, and calls back in here when a task reaches (or
/// terminally misses) a worker.
struct EngineWorker {
    shared: Arc<Shared>,
}

impl WorkerHooks<WorkItem> for EngineWorker {
    fn run(&self, worker: usize, task: LaneTask<WorkItem>) {
        let shared = &self.shared;
        let picked_up = shared.clock.now_nanos();
        shared.stage.record_lane_wait(task.lane, picked_up.saturating_sub(task.enqueued_nanos));
        // A panicking solve must not shrink the pool: contain it here (the
        // scheduler contains it too, but the engine owns the reply
        // contract).  The panicking job's reply sender is dropped during
        // unwinding, so its caller sees a disconnect rather than a hang;
        // parked waiters are released by the in-flight drop guard.
        match task.payload {
            WorkItem::Demand(mut job) => {
                if let Some(t) = job.trace.as_mut() {
                    t.worker = worker as u32;
                    t.solver = worker as u32;
                    t.lane = Lane::Demand.name();
                    t.admitted_nanos = picked_up;
                }
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_miss(shared, worker as u32, *job)
                }));
            }
            WorkItem::Revalidate(query) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(job) = look_up_refresh(shared, worker as u32, query, picked_up) {
                        serve_miss(shared, worker as u32, job);
                    }
                }));
            }
            WorkItem::Prefetch(job) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    prefetch_one(shared, worker as u32, job);
                }));
            }
        }
    }

    fn timed_out(&self, worker: usize, task: LaneTask<WorkItem>) {
        match task.payload {
            WorkItem::Demand(job) => shed(&self.shared, worker, *job, "deadline"),
            // An expired refresh or speculation is just dropped; the
            // scheduler already counted it.
            WorkItem::Revalidate(_) | WorkItem::Prefetch(_) => {}
        }
    }

    fn cancelled(&self, worker: usize, task: LaneTask<WorkItem>) {
        match task.payload {
            WorkItem::Demand(job) => shed(&self.shared, worker, *job, "cancelled"),
            WorkItem::Revalidate(_) | WorkItem::Prefetch(_) => {}
        }
    }
}

/// How [`Service::serve_inline`] left a demand query.
enum Inline {
    /// Answered on the caller's thread: a fresh hit, or an invalid query's
    /// error.
    Served(ServeResult),
    /// Handed to the demand lane; the response arrives on this channel.
    Queued(Receiver<ServeResult>),
}

/// A running query-serving engine.  Dropping the service closes the lanes
/// (queued demand still drains; queued speculation is dropped) and joins
/// every worker.
pub struct Service {
    running: Box<dyn Running<WorkItem>>,
    demand_deadline: Option<Duration>,
    shared: Arc<Shared>,
}

impl Service {
    /// Starts the worker pool described by `config`.
    ///
    /// # Panics
    ///
    /// Panics when [`ServiceConfig::preload_from`] points to an unreadable or
    /// malformed snapshot — a serving process is better off failing fast than
    /// silently starting with an empty cache.  Use [`Service::preload`] after
    /// a plain start for a fallible reload.
    pub fn start(config: ServiceConfig) -> Service {
        Service::start_with_clock(config, Arc::new(WallClock::new()))
    }

    /// [`Service::start`] with an explicit time source.
    ///
    /// Every lifecycle timestamp and latency-histogram sample the service
    /// records is a difference of `clock` readings, so this is the seam
    /// where a simulated clock plugs in: a deterministic clock makes the
    /// whole observability layer reproducible without touching the engine.
    ///
    /// # Panics
    ///
    /// As [`Service::start`].
    pub fn start_with_clock(config: ServiceConfig, clock: Arc<dyn Clock>) -> Service {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        let registry = MetricsRegistry::new();
        let stage = StageMetrics::new(&registry);
        let shared = Arc::new(Shared {
            cache: SolutionCache::new(&config.cache),
            flight: SingleFlight::new(),
            bases: Mutex::new(HashMap::new()),
            build_schedules: config.build_schedules,
            epoch: AtomicU64::new(0),
            ttl: config.ttl,
            clock,
            sink: TraceSink::new(workers, config.trace_capacity, config.tracing),
            stage,
            registry,
            ledger: PrefetchLedger::new(),
            queries: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            prefetched: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            prefetch_wasted: AtomicU64::new(0),
            predicted_exits: AtomicU64::new(0),
            triaged: AtomicU64::new(0),
            in_range: AtomicU64::new(0),
            dual_repairs: AtomicU64::new(0),
            revalidations: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            warm_pivots: AtomicU64::new(0),
            cold_pivots: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        let now: NowFn = {
            let clock = Arc::clone(&shared.clock);
            Arc::new(move || clock.now_nanos())
        };
        let hooks = Arc::new(EngineWorker { shared: Arc::clone(&shared) });
        let running = ThreadPerWorker.start(workers, hooks, now);
        let service = Service { running, demand_deadline: config.demand_deadline, shared };
        if let Some(path) = &config.preload_from {
            // lint: allow(panics) — documented fail-fast at startup.
            service.preload(path).expect("preloading the configured snapshot");
        }
        service
    }

    /// Runs `query`'s front half on this thread ([`look_up`]) and, unless
    /// that answered it, hands it to the demand lane with what the front
    /// half computed.
    fn serve_inline(&self, query: Query) -> Inline {
        let shared = &self.shared;
        let submitted_nanos = shared.clock.now_nanos();
        let ring = caller_ring();
        let mut trace = shared.sink.begin(submitted_nanos);
        if let Some(t) = trace.as_mut() {
            t.worker = ring as u32;
            t.solver = ring as u32;
            t.lane = INLINE_LANE;
        }
        let front = look_up(shared, Ring::Caller(ring), &query, submitted_nanos, &mut trace);
        let missed = match front {
            Front::Done(result) => return Inline::Served(result),
            Front::Missed(missed) => missed,
        };
        let (reply, response) = unbounded();
        // The lane wait starts where the lookup ended: no second clock read,
        // and `lane_demand_wait` is the same span as the queue stage.
        let enqueued_nanos = missed.lookup_done_nanos;
        let job = Job { query, reply, submitted_nanos, trace, missed };
        let mut task = LaneTask::new(WorkItem::Demand(Box::new(job)), Lane::Demand, enqueued_nanos);
        if let Some(deadline) = self.demand_deadline {
            task = task.with_deadline(submitted_nanos.saturating_add(deadline.as_nanos() as u64));
        }
        // A rejected submit means the lanes are closed (shutdown); the
        // caller then observes the reply channel disconnect.
        let _ = self.running.submit(task);
        Inline::Queued(response)
    }

    /// Serves `query` and returns the channel its response arrives on.  A
    /// cache hit is already in the channel when this returns (it was served
    /// on this thread); anything else goes to the demand lane.  If the
    /// service is shutting down, the returned channel reports a disconnect
    /// instead of a response (mapped to an error by [`Service::query`]).
    pub fn submit(&self, query: Query) -> Receiver<ServeResult> {
        match self.serve_inline(query) {
            Inline::Served(result) => {
                let (reply, response) = unbounded();
                let _ = reply.send(result);
                response
            }
            Inline::Queued(response) => response,
        }
    }

    /// Serves `query`, blocking until its response arrives.  A cache hit
    /// returns without leaving this thread: no channel, no task, no worker.
    pub fn query(&self, query: Query) -> ServeResult {
        match self.serve_inline(query) {
            Inline::Served(result) => result,
            Inline::Queued(response) => response.recv().map_err(|_| {
                ServeError::Failed(ServiceError("the service shut down before responding".into()))
            })?,
        }
    }

    /// Schedules speculative work: each job's query is pre-solved by an
    /// **idle** worker (one that found the job channel empty) through the
    /// ordinary drift-triage ladder, and its answer installed as a normal
    /// epoch-stamped cache entry.  Returns how many jobs were queued.
    ///
    /// Speculation is advisory end to end: demand traffic always wins the
    /// workers, a duplicate of an in-flight or already-cached query is
    /// dropped on pickup, and a pre-solved answer is bit-identical to what
    /// a demand solve would have produced (same triage ladder, exact
    /// arithmetic).  Callers typically build the jobs from a
    /// `steady-forecast` [`PresolvePlan`](steady_forecast::PresolvePlan).
    pub fn schedule_prefetch(&self, jobs: impl IntoIterator<Item = PrefetchJob>) -> usize {
        let mut queued = 0usize;
        for job in jobs {
            let predicted_exit = job.predicted_exit;
            let enqueued = self.shared.clock.now_nanos();
            if self.running.submit(LaneTask::new(WorkItem::Prefetch(job), Lane::Prefetch, enqueued))
            {
                // Counted only for accepted jobs, so the stat matches the
                // returned queue count even across a racing shutdown.
                if predicted_exit {
                    bump(&self.shared.predicted_exits);
                }
                queued += 1;
            }
        }
        queued
    }

    /// Schedules proactive TTL refreshes on the **revalidation lane**: each
    /// query is served exactly like a demand query — fresh entries are left
    /// alone, expired ones revalidate through drift triage, misses solve —
    /// but nobody waits on the reply, and the work (front half included)
    /// runs on a worker, only when the demand lane is empty.  Returns how
    /// many refreshes were queued.
    pub fn schedule_revalidation(&self, queries: impl IntoIterator<Item = Query>) -> usize {
        let mut queued = 0usize;
        for query in queries {
            let enqueued = self.shared.clock.now_nanos();
            let task = LaneTask::new(WorkItem::Revalidate(query), Lane::Revalidation, enqueued);
            if self.running.submit(task) {
                queued += 1;
            }
        }
        queued
    }

    /// Cancels every prefetch job still queued (already-running solves
    /// finish; cancellation is cooperative).  Returns how many were
    /// cancelled — also visible as [`ServiceStats::prefetch_cancelled`].
    /// The hook for a forecaster that changes its mind: a superseded plan
    /// is withdrawn in O(queue) instead of being speculatively solved.
    pub fn cancel_prefetch(&self) -> usize {
        self.running.cancel_lane(Lane::Prefetch)
    }

    /// Background (prefetch + revalidation) jobs not yet finished (queued
    /// plus currently solving) — also exposed as the `prefetch_backlog`
    /// gauge of [`Service::metrics`].
    pub fn prefetch_backlog(&self) -> usize {
        self.running.backlog()
    }

    /// Blocks until every scheduled background (prefetch + revalidation)
    /// job has finished (or been dropped as a duplicate or cancelled), up
    /// to `timeout`.  Returns `true` when the backlog reached zero — the
    /// deterministic hand-off point for benchmarks that schedule a plan and
    /// then replay the predicted traffic.  The wait is a condvar signaled
    /// when the last job retires, not a poll loop.
    pub fn await_prefetch_idle(&self, timeout: Duration) -> bool {
        self.running.await_background_idle(timeout)
    }

    /// The cached warm-start basis of structural class `class` (the
    /// cost-blind fingerprint of a query's platform), if the service has
    /// solved that class before.  This is what a forecaster certifies
    /// against.
    pub fn class_basis(&self, class: u64) -> Option<SolvedBasis> {
        self.shared.bases.lock().get(&class).cloned()
    }

    /// Advances the cache epoch by one and returns the new epoch.
    ///
    /// Under a [`ServiceConfig::ttl`] of `Some(t)`, entries inserted more
    /// than `t` epochs ago become *expired*: still cached, but revalidated
    /// through drift triage on their next lookup.  Call this on whatever
    /// cadence matches the deployment's cost-drift rate (e.g. once per
    /// monitoring interval); with a `ttl` of `None` the epoch is
    /// bookkeeping only.
    pub fn advance_epoch(&self) -> u64 {
        // relaxed: a monotone counter advanced by one caller at a time in
        // practice; workers read it as an age stamp and tolerate lag (see
        // `Shared::now`).  The fetch_add itself is still atomic, so
        // concurrent advances never lose a tick.
        self.shared.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current cache epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.now()
    }

    /// Writes the cache's `fingerprint → throughput` entries **and** the
    /// per-structural-class simplex basis seeds to `path` as a JSON snapshot
    /// (see [`crate::persist`]), returning how many cache entries were
    /// written.  Schedules are not persisted — restored entries answer with
    /// `schedule: None`, like any isomorphic cache hit.
    pub fn snapshot(&self, path: impl AsRef<Path>) -> Result<usize, ServiceError> {
        let entries: Vec<persist::SnapshotEntry> = self
            .shared
            .cache
            .entries()
            .into_iter()
            .map(|(key, answer)| (key, answer.throughput.clone()))
            .collect();
        let bases: Vec<persist::BasisEntry> =
            self.shared.bases.lock().iter().map(|(&class, basis)| (class, basis.clone())).collect();
        persist::write_snapshot(&entries, &bases, path.as_ref())?;
        Ok(entries.len())
    }

    /// Loads a snapshot written by [`Service::snapshot`] into the cache and
    /// returns how many entries were inserted.
    ///
    /// Snapshots persist only `fingerprint → throughput`, so a restored
    /// [`Answer`] carries an **empty** [`Answer::platform`] and no schedule;
    /// consumers reading those fields must treat restored hits like
    /// isomorphic-but-renumbered ones (exact throughput, nothing
    /// numbering-dependent).  Restored entries are stamped with the current
    /// epoch.  Persisted basis seeds are merged into the per-class basis
    /// table, so the very first drifted solve after a restart triages
    /// against its class's last known basis instead of going cold.
    pub fn preload(&self, path: impl AsRef<Path>) -> Result<usize, ServiceError> {
        let (entries, bases) = persist::read_snapshot(path.as_ref())?;
        let count = entries.len();
        let epoch = self.epoch();
        for (key, throughput) in entries {
            let answer = Answer {
                fingerprint: Fingerprint(key),
                // The platform a snapshot entry was solved on is gone; an
                // empty stand-in is fine because restored answers carry no
                // schedule, the only platform-numbering-sensitive payload.
                platform: Platform::new(),
                throughput,
                schedule: None,
            };
            // A snapshot does not record which structural class an entry
            // belongs to, so restored entries carry no class and are
            // preferred eviction victims until re-solved.
            self.shared.cache.insert_at(key, Arc::new(answer), epoch, None);
        }
        for (class, basis) in bases {
            publish_basis(&self.shared, class, basis);
        }
        Ok(count)
    }

    /// A snapshot of the service's counters.
    pub fn stats(&self) -> ServiceStats {
        let cache = self.shared.cache.stats();
        let lanes = self.running.counters();
        let (warm, cold) = (&self.shared.stage.solve_warm, &self.shared.stage.solve_cold);
        ServiceStats {
            queries: gauge(&self.shared.queries),
            hits: cache.hits,
            misses: cache.misses,
            coalesced: gauge(&self.shared.coalesced),
            solves: gauge(&self.shared.solves),
            warm_solves: warm.count(),
            cold_solves: cold.count(),
            triaged: gauge(&self.shared.triaged),
            in_range: gauge(&self.shared.in_range),
            dual_repairs: gauge(&self.shared.dual_repairs),
            expired: cache.stale,
            revalidations: gauge(&self.shared.revalidations),
            stale_served: gauge(&self.shared.stale_served),
            warm_pivots: gauge(&self.shared.warm_pivots),
            cold_pivots: gauge(&self.shared.cold_pivots),
            warm_solve_nanos: warm.sum(),
            cold_solve_nanos: cold.sum(),
            shed: gauge(&self.shared.shed),
            errors: gauge(&self.shared.errors),
            prefetched: gauge(&self.shared.prefetched),
            prefetch_hits: gauge(&self.shared.prefetch_hits),
            prefetch_wasted: gauge(&self.shared.prefetch_wasted),
            predicted_exits: gauge(&self.shared.predicted_exits),
            demand_timeouts: lanes.demand_timeouts,
            prefetch_cancelled: lanes.prefetch_cancelled(),
            preferred_evictions: cache.preferred_evictions,
            insertions: cache.insertions,
            evictions: cache.evictions,
            cached_entries: self.shared.cache.len(),
        }
    }

    /// A point-in-time metrics snapshot: every [`ServiceStats`] counter,
    /// the live gauges and the per-stage latency histograms, renderable as
    /// hand-rolled JSON ([`MetricsSnapshot::to_json`]) or Prometheus text
    /// exposition ([`MetricsSnapshot::to_prometheus`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        let stats = self.stats();
        let mut snap = self.shared.registry.snapshot();
        snap.push_counter("queries", stats.queries);
        snap.push_counter("hits", stats.hits);
        snap.push_counter("misses", stats.misses);
        snap.push_counter("coalesced", stats.coalesced);
        snap.push_counter("solves", stats.solves);
        snap.push_counter("warm_solves", stats.warm_solves);
        snap.push_counter("cold_solves", stats.cold_solves);
        snap.push_counter("triaged", stats.triaged);
        snap.push_counter("in_range", stats.in_range);
        snap.push_counter("dual_repairs", stats.dual_repairs);
        snap.push_counter("expired", stats.expired);
        snap.push_counter("revalidations", stats.revalidations);
        snap.push_counter("stale_served", stats.stale_served);
        snap.push_counter("warm_pivots", stats.warm_pivots);
        snap.push_counter("cold_pivots", stats.cold_pivots);
        snap.push_counter("warm_solve_nanos", stats.warm_solve_nanos);
        snap.push_counter("cold_solve_nanos", stats.cold_solve_nanos);
        snap.push_counter("shed", stats.shed);
        snap.push_counter("errors", stats.errors);
        snap.push_counter("prefetched", stats.prefetched);
        snap.push_counter("prefetch_hits", stats.prefetch_hits);
        snap.push_counter("prefetch_wasted", stats.prefetch_wasted);
        snap.push_counter("predicted_exits", stats.predicted_exits);
        snap.push_counter("demand_timeouts", stats.demand_timeouts);
        snap.push_counter("prefetch_cancelled", stats.prefetch_cancelled);
        snap.push_counter("preferred_evictions", stats.preferred_evictions);
        snap.push_counter("insertions", stats.insertions);
        snap.push_counter("evictions", stats.evictions);
        snap.push_counter("traces_dropped", self.shared.sink.dropped());
        snap.push_gauge("cached_entries", stats.cached_entries as u64);
        snap.push_gauge("prefetch_backlog", self.prefetch_backlog() as u64);
        snap.push_gauge("epoch", self.epoch());
        let lanes = self.running.counters();
        snap.push_gauge("lane_demand_depth", lanes.depth[Lane::Demand.index()]);
        snap.push_gauge("lane_revalidation_depth", lanes.depth[Lane::Revalidation.index()]);
        snap.push_gauge("lane_prefetch_depth", lanes.depth[Lane::Prefetch.index()]);
        snap
    }

    /// Whether per-query lifecycle tracing is on
    /// ([`ServiceConfig::tracing`]).
    pub fn tracing_enabled(&self) -> bool {
        self.shared.sink.enabled()
    }

    /// Drains every worker's trace ring, returning all completed traces
    /// buffered since the last drain, ordered by submission time.
    pub fn drain_traces(&self) -> Vec<QueryTrace> {
        self.shared.sink.drain()
    }

    /// Traces lost to ring contention or overwrite since start.
    pub fn traces_dropped(&self) -> u64 {
        self.shared.sink.dropped()
    }

    /// The service's time source, for callers (e.g. the load generator)
    /// that want client-side spans on the same clock as the traces.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.shared.clock)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Close the lanes (queued demand still drains; queued speculation
        // is dropped) and join every worker.
        self.running.shutdown();
    }
}

/// Seals `trace` (if tracing is on) with `outcome` at `end` and offers it
/// to `ring`.
fn finish_trace_at(
    shared: &Shared,
    ring: Ring,
    trace: Option<QueryTrace>,
    outcome: &'static str,
    end: u64,
) {
    if let Some(mut t) = trace {
        t.finish(outcome, end);
        shared.sink.push(ring, t);
    }
}

/// Pre-solves one speculative job on an idle worker: validate, drop if the
/// answer is already cached fresh or an identical solve is in flight,
/// otherwise take single-flight leadership and solve through the ordinary
/// triage ladder, installing the answer as a normal cache entry.  Demand
/// queries that coalesced onto the speculative solve are fanned the answer
/// exactly like waiters on a demand solve (and claim the prefetch as
/// landed).
// lint: worker-entry
fn prefetch_one(shared: &Shared, worker: u32, job: PrefetchJob) {
    if job.query.validate().is_err() {
        // A forecaster only predicts platforms for queries it already saw
        // succeed; a malformed speculative query is dropped, not an error.
        return;
    }
    let fingerprint = job.query.fingerprint();
    let key = fingerprint.0;
    let now = shared.now();
    // Speculative leadership: drop the job when the prediction already came
    // true (cached fresh) or a demand solve is already producing the answer.
    if !shared.flight.try_lead(key, || shared.cache.peek_fresh(key, now, shared.ttl).is_some()) {
        return;
    }
    let mut guard = InFlightGuard { shared, key, armed: true };

    // Speculative traces begin at pickup: there is no submitter, so the
    // queue/lookup/flight spans are zero and the record is solve + publish.
    let solve_begin = shared.clock.now_nanos();
    let mut trace = shared.sink.begin(solve_begin);
    if let Some(t) = trace.as_mut() {
        t.worker = worker;
        t.solver = worker;
        t.lane = Lane::Prefetch.name();
    }
    let structural = job.query.structural_fingerprint().0;
    let prior = shared.bases.lock().get(&structural).cloned();
    let (outcome, breakdown) =
        solve_recorded(shared, &job.query, fingerprint, prior.as_ref(), trace.is_some());
    match outcome {
        Ok((answer, report)) => {
            let solve_done = shared.clock.now_nanos();
            publish_solver_health(shared, &report, breakdown, solve_done, trace.as_mut());
            bump(&shared.prefetched);
            if let Some(basis) = report.basis {
                publish_basis(shared, structural, basis);
            }
            // Attribution key first, then the cache entry, and only then
            // release single-flight leadership: a demand query racing this
            // completion either parks as a waiter (handled below) or finds
            // the fresh entry — and when it does, the key is already
            // claimable, so the landing is never misread as a plain hit or,
            // worse, as a wasted prefetch by a redundant demand solve.
            shared.ledger.record(key);
            let answer = Arc::new(answer);
            shared.cache.insert_at(key, Arc::clone(&answer), now, Some(structural));
            let waiters = shared.flight.complete(key);
            guard.disarm();
            let end = shared.clock.now_nanos();
            if !waiters.is_empty() {
                // Demand queries coalesced onto the speculative solve: the
                // prefetch has landed (claim the key back unless a hit that
                // raced the removal above already did).
                if shared.ledger.claim(key) {
                    bump(&shared.prefetch_hits);
                }
                for waiter in waiters {
                    let Waiter { platform, reply, submitted_nanos, trace } = waiter;
                    let tailored = tailor(&answer, &platform);
                    shared.stage.e2e_coalesced.record(end.saturating_sub(submitted_nanos));
                    finish_coalesced_trace(shared, worker, trace, "coalesced", end);
                    let _ = reply.send(Ok(Served { answer: tailored, via: ServedVia::Coalesced }));
                }
            }
            finish_trace_at(shared, Ring::Worker(worker as usize), trace, "prefetch", end);
        }
        Err(e) => {
            // The speculative solve itself failed (e.g. the predicted
            // platform is degenerate): fail any coalesced demand waiters,
            // swallow the speculation.
            let waiters = shared.flight.complete(key);
            guard.disarm();
            let end = shared.clock.now_nanos();
            bump_by(&shared.errors, waiters.len() as u64);
            for waiter in waiters {
                let Waiter { reply, trace, .. } = waiter;
                finish_coalesced_trace(shared, worker, trace, "error", end);
                let _ = reply.send(Err(ServeError::Failed(e.clone())));
            }
            finish_trace_at(shared, Ring::Worker(worker as usize), trace, "error", end);
        }
    }
}

/// Seals a parked waiter's trace at fan-out: the solving worker stamps
/// itself as the solver and pushes to its own ring.
fn finish_coalesced_trace(
    shared: &Shared,
    worker: u32,
    trace: Option<QueryTrace>,
    outcome: &'static str,
    end: u64,
) {
    if let Some(mut t) = trace {
        t.solver = worker;
        t.finish(outcome, end);
        shared.sink.push(Ring::Worker(worker as usize), t);
    }
}

/// Runs [`solve_prepared`] for a query that is `traced` (its job carries a
/// [`QueryTrace`]) under a [`steady_lp::RecordingObserver`], returning the
/// solve's phase breakdown for the trace, and for any other query under the
/// statically-free [`steady_lp::NoopObserver`].  The health aggregate
/// inside the returned report is populated either way.
fn solve_recorded(
    shared: &Shared,
    query: &Query,
    fingerprint: Fingerprint,
    prior: Option<&SolvedBasis>,
    traced: bool,
) -> (
    Result<(Answer, steady_drift::TriageReport), crate::ServiceError>,
    Option<steady_lp::PhaseBreakdown>,
) {
    if traced {
        let mut rec = steady_lp::RecordingObserver::new(SOLVER_TIMELINE_CAPACITY);
        let outcome = solve_prepared(query, fingerprint, shared.build_schedules, prior, &mut rec);
        (outcome, Some(rec.finish().breakdown()))
    } else {
        let outcome = solve_prepared(
            query,
            fingerprint,
            shared.build_schedules,
            prior,
            &mut steady_lp::NoopObserver,
        );
        (outcome, None)
    }
}

/// Folds one successful solve into the always-on solver health histograms
/// and stamps the trace's solver fields: the solve's end, its triage rung,
/// pivot counts and health, and the phase `breakdown` recorded for it.
fn publish_solver_health(
    shared: &Shared,
    report: &steady_drift::TriageReport,
    breakdown: Option<steady_lp::PhaseBreakdown>,
    solve_done: u64,
    trace: Option<&mut QueryTrace>,
) {
    shared.stage.record_solver_health(&report.health);
    if let Some(t) = trace {
        t.solve_done_nanos = solve_done;
        t.triage = report.triage.kind_name();
        t.set_solve(report.trace());
        t.set_health(&report.health);
        if let Some(breakdown) = &breakdown {
            t.set_breakdown(breakdown);
        }
    }
}

/// Publishes a freshly won basis as its structural class's warm-start seed
/// (capped table) **and** marks the class seeded for drift-aware eviction —
/// the two must never drift apart, so every publish site goes through here.
fn publish_basis(shared: &Shared, class: u64, basis: SolvedBasis) {
    let mut bases = shared.bases.lock();
    if bases.len() < MAX_CACHED_BASES || bases.contains_key(&class) {
        bases.insert(class, basis);
        shared.cache.mark_class_seeded(class);
    }
}

/// Removes an in-flight entry when dropped, failing any parked waiters.
///
/// `solve_one` disarms the guard on the normal path (after fanning the real
/// outcome out); if the solve panics, the guard runs during unwinding so the
/// key does not stay in the table forever — without it, every waiter would
/// block indefinitely and all future queries for the fingerprint would park
/// on a solve that no longer exists.
struct InFlightGuard<'a> {
    shared: &'a Shared,
    key: u64,
    armed: bool,
}

impl InFlightGuard<'_> {
    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let waiters = self.shared.flight.complete(self.key);
        // The solver's own query failed too: one error for it (its reply
        // sender dies with the unwinding stack) plus one per parked waiter.
        bump_by(&self.shared.errors, 1 + waiters.len() as u64);
        for waiter in waiters {
            let _ = waiter.reply.send(Err(ServeError::Failed(ServiceError(
                "the solve for this query panicked".into(),
            ))));
        }
    }
}

/// Outcome of a query's front half ([`look_up`]).
enum Front {
    /// Answered without the workers: a fresh hit, or an invalid query's
    /// error.  The trace, if any, is sealed.
    Done(ServeResult),
    /// A miss or an expired entry: flight → solve are still to come.
    Missed(Missed),
}

/// The front half of every demand and revalidation query, on whichever
/// thread holds it — the caller's for demand traffic
/// ([`Service::serve_inline`]), a worker's for revalidation-lane refreshes
/// ([`look_up_refresh`]): count the query, validate, fingerprint, and do its
/// one counted cache lookup at the current epoch.  A fresh hit is finished
/// right here with all its bookkeeping ([`serve_hit`]); `trace` is taken
/// when the query is done and left for the back half otherwise.
fn look_up(
    shared: &Shared,
    ring: Ring,
    query: &Query,
    submitted_nanos: u64,
    trace: &mut Option<QueryTrace>,
) -> Front {
    bump(&shared.queries);
    if let Err(e) = query.validate() {
        bump(&shared.errors);
        // Traces are sealed *before* the reply goes out, here and on every
        // path below: once a caller observes its answer, its trace is
        // drainable — no race between a reply and its own record.
        finish_trace_at(shared, ring, trace.take(), "error", shared.clock.now_nanos());
        return Front::Done(Err(ServeError::Failed(e)));
    }
    let fingerprint = query.fingerprint();
    let epoch = shared.now();

    let lookup = shared.cache.lookup(fingerprint.0, epoch, shared.ttl);
    let lookup_done_nanos = shared.clock.now_nanos();
    shared.stage.lookup.record(lookup_done_nanos.saturating_sub(submitted_nanos));
    if let Some(t) = trace.as_mut() {
        t.lookup_done_nanos = lookup_done_nanos;
        t.lookup = match &lookup {
            Lookup::Hit(_) => "hit",
            Lookup::Stale(_) => "stale",
            Lookup::Miss => "miss",
        };
    }
    let stale = match lookup {
        Lookup::Hit(answer) => {
            let served = serve_hit(
                shared,
                ring,
                &query.platform,
                &answer,
                submitted_nanos,
                lookup_done_nanos,
                trace.take(),
            );
            return Front::Done(Ok(served));
        }
        // Expired: keep the old answer as the shed fallback and revalidate.
        Lookup::Stale(answer) => Some(answer),
        Lookup::Miss => None,
    };
    Front::Missed(Missed { fingerprint, epoch, stale, lookup_done_nanos })
}

/// Finishes a query the cache answered fresh — at the lookup, or at the
/// single-flight re-check when the solve it would have joined had just
/// published: prefetch attribution, tailoring to the caller's numbering, the
/// `publish` and `e2e_hit` samples, and the sealed trace.
fn serve_hit(
    shared: &Shared,
    ring: Ring,
    platform: &Platform,
    answer: &Arc<Answer>,
    submitted_nanos: u64,
    lookup_done_nanos: u64,
    trace: Option<QueryTrace>,
) -> Served {
    // An answer is cached under its own fingerprint.
    if shared.ledger.claim(answer.fingerprint.0) {
        bump(&shared.prefetch_hits);
    }
    let answer = tailor(answer, platform);
    let end = shared.clock.now_nanos();
    shared.stage.publish.record(end.saturating_sub(lookup_done_nanos));
    shared.stage.e2e_hit.record(end.saturating_sub(submitted_nanos));
    finish_trace_at(shared, ring, trace, "cache", end);
    Served { answer, via: ServedVia::Cache }
}

/// The front half of one proactive TTL refresh, on the worker that picked
/// it up.  Unless the entry turned out fresh, returns the job for the same
/// back half as a demand miss ([`serve_miss`]) — replying to nobody.
// lint: worker-entry
fn look_up_refresh(shared: &Shared, worker: u32, query: Query, picked_up: u64) -> Option<Job> {
    let mut trace = shared.sink.begin(picked_up);
    if let Some(t) = trace.as_mut() {
        t.worker = worker;
        t.solver = worker;
        t.lane = Lane::Revalidation.name();
    }
    let ring = Ring::Worker(worker as usize);
    match look_up(shared, ring, &query, picked_up, &mut trace) {
        Front::Done(_) => None,
        Front::Missed(missed) => {
            let (reply, _nobody) = unbounded();
            let submitted_nanos = picked_up;
            Some(Job { query, reply, submitted_nanos, trace, missed })
        }
    }
}

/// The back half of a query its front half could not answer: single-flight,
/// then (for the leader) the solve.
// lint: worker-entry
fn serve_miss(shared: &Shared, worker: u32, job: Job) {
    let key = job.missed.fingerprint.0;
    let epoch = job.missed.epoch;
    // Single-flight admission: park on an identical in-flight solve, or
    // become the leader (solver) for this key.  The re-check runs under the
    // admission lock — a solve may have published between the front half's
    // lookup and the lock (the whole lane wait lies in between); a
    // still-stale entry reads as absent there (peek_fresh), because it must
    // be revalidated.
    match shared.flight.join_or_lead(
        key,
        job,
        || shared.cache.peek_fresh(key, epoch, shared.ttl),
        |job| {
            let mut trace = job.trace;
            if let Some(t) = trace.as_mut() {
                t.solve_start_nanos = shared.clock.now_nanos();
            }
            Waiter {
                platform: job.query.platform,
                reply: job.reply,
                submitted_nanos: job.submitted_nanos,
                trace,
            }
        },
    ) {
        Flight::Ready(answer, job) => {
            let served = serve_hit(
                shared,
                Ring::Worker(worker as usize),
                &job.query.platform,
                &answer,
                job.submitted_nanos,
                job.missed.lookup_done_nanos,
                job.trace,
            );
            let _ = job.reply.send(Ok(served));
        }
        Flight::Parked => bump(&shared.coalesced),
        Flight::Leader(job) => solve_one(shared, worker, job),
    }
}

/// Sheds a demand job whose lane task never ran: its deadline passed or its
/// lane was cancelled (`outcome` names which, for the trace).  A
/// *revalidation* degrades gracefully — its expired answer is served as-is
/// ([`ServedVia::StaleFallback`]) — and any other query gets
/// [`ServeError::Shed`].  An unrun task never reached the single-flight
/// table, so it leads no solve and has no waiters to release.
fn shed(shared: &Shared, worker: usize, job: Job, outcome: &'static str) {
    let end = shared.clock.now_nanos();
    let ring = Ring::Worker(worker);
    let result = match &job.missed.stale {
        Some(answer) => {
            bump(&shared.stale_served);
            finish_trace_at(shared, ring, job.trace, "stale-fallback", end);
            let answer = tailor(answer, &job.query.platform);
            Ok(Served { answer, via: ServedVia::StaleFallback })
        }
        None => {
            bump(&shared.shed);
            finish_trace_at(shared, ring, job.trace, outcome, end);
            Err(ServeError::Shed)
        }
    };
    let _ = job.reply.send(result);
}

/// Solves one led job through the drift-triage ladder, publishes the answer
/// and its basis, and fans the result out to every parked waiter.  A panic
/// here unwinds to the `catch_unwind` around [`serve_miss`], releasing the
/// waiters through the in-flight guard on the way.
fn solve_one(shared: &Shared, worker: u32, mut job: Job) {
    let Missed { fingerprint, ref stale, .. } = job.missed;
    let key = fingerprint.0;
    let mut guard = InFlightGuard { shared, key, armed: true };

    bump(&shared.solves);
    // A demand solve for a key the prefetcher once installed means the
    // speculative entry was evicted or expired before any demand query
    // landed on it: the prediction was right but wasted.
    if shared.ledger.claim(key) {
        bump(&shared.prefetch_wasted);
    }
    // Triage seed: the winning basis of this query's structural class (same
    // topology and roles, possibly different costs), if any.
    let structural_key = job.query.structural_fingerprint().0;
    let prior = shared.bases.lock().get(&structural_key).cloned();
    // The flight stage ends (inclusive of the ledger/basis bookkeeping
    // above) where the solve span starts, so the two stay adjacent.
    let solve_begin = shared.clock.now_nanos();
    if let Some(t) = job.trace.as_mut() {
        t.solver = worker;
        t.solve_start_nanos = solve_begin;
    }
    // The query was already validated and fingerprinted by its front half;
    // solve_prepared skips redoing both on the hot path.
    let mut solve_done = solve_begin;
    let mut solved_warm = None;
    let (solve_outcome, breakdown) =
        solve_recorded(shared, &job.query, fingerprint, prior.as_ref(), job.trace.is_some());
    let outcome = match solve_outcome {
        Ok((answer, report)) => {
            solve_done = shared.clock.now_nanos();
            let nanos = solve_done.saturating_sub(solve_begin);
            publish_solver_health(shared, &report, breakdown, solve_done, job.trace.as_mut());
            if report.had_prior {
                bump(&shared.triaged);
            }
            match report.triage {
                Triage::InRange => {
                    bump(&shared.in_range);
                }
                Triage::DualRepair { .. } => {
                    bump(&shared.dual_repairs);
                }
                Triage::ResolveWarm { .. } | Triage::ResolveCold => {}
            }
            let warm =
                report.triage.reused_basis() || matches!(report.triage, Triage::ResolveWarm { .. });
            solved_warm = Some(warm);
            if warm {
                bump_by(&shared.warm_pivots, report.iterations as u64);
                shared.stage.solve_warm.record(nanos);
            } else {
                bump_by(&shared.cold_pivots, report.iterations as u64);
                shared.stage.solve_cold.record(nanos);
            }
            if stale.is_some() {
                bump(&shared.revalidations);
            }
            if let Some(basis) = report.basis {
                publish_basis(shared, structural_key, basis);
            }
            let answer = Arc::new(answer);
            shared.cache.insert_at(key, Arc::clone(&answer), shared.now(), Some(structural_key));
            Ok(answer)
        }
        Err(e) => Err(e),
    };

    let waiters = shared.flight.complete(key);
    guard.disarm();
    if outcome.is_err() {
        // One error response per caller: the solver's own plus every waiter.
        bump_by(&shared.errors, 1 + waiters.len() as u64);
    }
    let end = shared.clock.now_nanos();
    shared.stage.publish.record(end.saturating_sub(solve_done));
    match solved_warm {
        Some(true) => shared.stage.e2e_warm.record(end.saturating_sub(job.submitted_nanos)),
        Some(false) => shared.stage.e2e_cold.record(end.saturating_sub(job.submitted_nanos)),
        None => {}
    }
    // The solver's own job gets the full answer (it is the numbering the
    // schedule was built in); waiters get it tailored to their platforms.
    let respond = |platform: Option<&Platform>, via: ServedVia| match &outcome {
        Ok(answer) => Ok(Served {
            answer: platform.map_or_else(|| Arc::clone(answer), |p| tailor(answer, p)),
            via,
        }),
        Err(e) => Err(ServeError::Failed(e.clone())),
    };
    let leader_via = if stale.is_some() { ServedVia::Revalidated } else { ServedVia::Solve };
    let leader_outcome = match (&outcome, solved_warm) {
        (Err(_), _) => "error",
        (Ok(_), _) if stale.is_some() => "revalidated",
        (Ok(_), Some(true)) => "solve-warm",
        _ => "solve-cold",
    };
    finish_trace_at(shared, Ring::Worker(worker as usize), job.trace.take(), leader_outcome, end);
    let _ = job.reply.send(respond(None, leader_via));
    for waiter in waiters {
        let Waiter { platform, reply, submitted_nanos, trace } = waiter;
        shared.stage.e2e_coalesced.record(end.saturating_sub(submitted_nanos));
        let waiter_outcome = if outcome.is_ok() { "coalesced" } else { "error" };
        finish_coalesced_trace(shared, worker, trace, waiter_outcome, end);
        let _ = reply.send(respond(Some(&platform), ServedVia::Coalesced));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Collective;
    use std::time::Instant;
    use steady_platform::generators::figure2;
    use steady_platform::NodeId;
    use steady_rational::rat;

    fn figure2_query() -> Query {
        let instance = figure2();
        Query {
            platform: instance.platform,
            collective: Collective::Scatter { source: instance.source, targets: instance.targets },
        }
    }

    #[test]
    fn second_identical_query_hits_the_cache() {
        let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let first = service.query(figure2_query()).unwrap();
        assert_eq!(first.via, ServedVia::Solve);
        assert_eq!(first.answer.throughput, rat(1, 2));
        let second = service.query(figure2_query()).unwrap();
        assert_eq!(second.via, ServedVia::Cache);
        assert_eq!(second.answer.throughput, rat(1, 2));
        let stats = service.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.cached_entries, 1);
    }

    #[test]
    fn schedules_are_built_when_configured() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            build_schedules: true,
            ..ServiceConfig::default()
        });
        let served = service.query(figure2_query()).unwrap();
        let schedule = served.answer.schedule.as_ref().expect("schedule built");
        assert_eq!(schedule.throughput(), rat(1, 2));
    }

    #[test]
    fn relabeled_cache_hits_drop_the_schedule_but_keep_the_throughput() {
        use crate::fingerprint::permuted_platform;

        let service = Service::start(ServiceConfig {
            workers: 2,
            build_schedules: true,
            ..ServiceConfig::default()
        });
        let cold = service.query(figure2_query()).unwrap();
        assert!(cold.answer.schedule.is_some(), "solver's own numbering keeps the schedule");

        // The same query with every node renumbered: same fingerprint, same
        // throughput, but the cached schedule's node ids would be wrong.
        let instance = figure2();
        let perm = [4, 0, 1, 2, 3];
        let relabeled = Query {
            platform: permuted_platform(&instance.platform, &perm),
            collective: Collective::Scatter {
                source: NodeId(perm[instance.source.index()]),
                targets: instance.targets.iter().map(|t| NodeId(perm[t.index()])).collect(),
            },
        };
        let served = service.query(relabeled).unwrap();
        assert_eq!(served.via, ServedVia::Cache);
        assert_eq!(served.answer.throughput, cold.answer.throughput);
        assert!(served.answer.schedule.is_none(), "foreign numbering must not get a schedule");

        // An exact repeat still gets the schedule.
        let repeat = service.query(figure2_query()).unwrap();
        assert_eq!(repeat.via, ServedVia::Cache);
        assert!(repeat.answer.schedule.is_some());
    }

    #[test]
    fn invalid_queries_get_error_responses() {
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let mut query = figure2_query();
        query.collective = Collective::Scatter { source: NodeId(42), targets: vec![NodeId(1)] };
        assert!(service.query(query).is_err());
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn cost_drift_queries_warm_start_from_the_structural_class() {
        use steady_platform::generators::heterogeneous_star;

        let star_scatter = |costs: &[steady_rational::Ratio]| {
            let (platform, center, leaves) = heterogeneous_star(costs);
            Query { platform, collective: Collective::Scatter { source: center, targets: leaves } }
        };
        let base = star_scatter(&[rat(1, 2), rat(1, 3), rat(1, 4)]);
        let drifted = star_scatter(&[rat(1, 3), rat(1, 5), rat(2, 3)]);
        assert_ne!(base.fingerprint(), drifted.fingerprint());
        assert_eq!(base.structural_fingerprint(), drifted.structural_fingerprint());

        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let cold = service.query(base).unwrap();
        assert_eq!(cold.via, ServedVia::Solve);
        let warm = service.query(drifted.clone()).unwrap();
        assert_eq!(warm.via, ServedVia::Solve, "a drifted platform is still a cache miss");
        let stats = service.stats();
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.warm_solves, 1, "the second solve reuses the class basis: {stats:?}");
        // Warm-started answers are bit-identical to from-scratch answers.
        let from_scratch = crate::query::solve_query(&drifted, false).unwrap();
        assert_eq!(warm.answer.throughput, from_scratch.throughput);
    }

    #[test]
    fn expired_entries_revalidate_through_triage_not_eviction() {
        let service =
            Service::start(ServiceConfig { workers: 1, ttl: Some(0), ..ServiceConfig::default() });
        let cold = service.query(figure2_query()).unwrap();
        assert_eq!(cold.via, ServedVia::Solve);

        // Same epoch: still fresh.
        let hit = service.query(figure2_query()).unwrap();
        assert_eq!(hit.via, ServedVia::Cache);

        // Epoch advances: the entry expires and the next query revalidates
        // it — identical LP, cached class basis, so the triage is in-range
        // with zero pivots — and the answer stays exact.
        assert_eq!(service.advance_epoch(), 1);
        assert_eq!(service.epoch(), 1);
        let revalidated = service.query(figure2_query()).unwrap();
        assert_eq!(revalidated.via, ServedVia::Revalidated);
        assert_eq!(revalidated.answer.throughput, cold.answer.throughput);

        // Revalidation re-stamped the entry: fresh again within this epoch.
        let hit = service.query(figure2_query()).unwrap();
        assert_eq!(hit.via, ServedVia::Cache);

        let stats = service.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.revalidations, 1);
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.triaged, 1, "the revalidation had a prior basis");
        assert_eq!(stats.in_range, 1, "an unchanged LP must re-price in range");
        assert!((stats.triage_reuse_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(stats.cached_entries, 1, "expiry never drops the entry");
    }

    #[test]
    fn drifted_queries_triage_against_the_class_basis() {
        use steady_platform::generators::heterogeneous_star;

        let star_scatter = |costs: &[steady_rational::Ratio]| {
            let (platform, center, leaves) = heterogeneous_star(costs);
            Query { platform, collective: Collective::Scatter { source: center, targets: leaves } }
        };
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let base = service.query(star_scatter(&[rat(1, 2), rat(1, 3), rat(1, 4)])).unwrap();
        // A small drift of one cost: same structural class, new cache key.
        let drifted = star_scatter(&[rat(17, 32), rat(1, 3), rat(1, 4)]);
        let from_scratch = crate::query::solve_query(&drifted, false).unwrap();
        let served = service.query(drifted).unwrap();
        assert_eq!(served.via, ServedVia::Solve);
        assert_eq!(served.answer.throughput, from_scratch.throughput);
        assert!(base.answer.throughput.is_positive());
        let stats = service.stats();
        assert_eq!(stats.triaged, 1);
        assert_eq!(stats.warm_solves, 1, "the drifted solve reused the class basis: {stats:?}");
    }

    #[test]
    fn shed_revalidations_fall_back_to_the_stale_answer() {
        // A zero demand deadline sheds every query that needs a worker: its
        // deadline has passed by the time any worker vets it.  An expired
        // entry's revalidation must degrade to serving the stale answer; a
        // query with nothing to fall back to is shed.
        let dir = std::env::temp_dir().join("steady-service-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stale_{}.json", std::process::id()));
        let warm = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let fresh = warm.query(figure2_query()).unwrap();
        assert_eq!(warm.snapshot(&path).unwrap(), 1);
        drop(warm);

        let service = Service::start(
            ServiceConfig {
                workers: 2,
                ttl: Some(0),
                demand_deadline: Some(Duration::ZERO),
                ..ServiceConfig::default()
            }
            .preload(&path),
        );
        std::fs::remove_file(&path).ok();
        service.advance_epoch(); // the restored answer is now expired

        let stale = service.query(figure2_query()).unwrap();
        assert_eq!(stale.via, ServedVia::StaleFallback, "shed revalidation serves stale");
        assert_eq!(stale.answer.throughput, fresh.answer.throughput);

        let mut unseen = figure2_query();
        if let Collective::Scatter { targets, .. } = &mut unseen.collective {
            targets.truncate(1);
        }
        assert!(matches!(service.query(unseen), Err(ServeError::Shed)));

        let stats = service.stats();
        assert_eq!(stats.demand_timeouts, 2);
        assert_eq!(stats.stale_served, 1);
        assert_eq!(stats.shed, 1, "only the query without a fallback is a shed error");
        assert_eq!(stats.solves, 0);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn snapshot_round_trip_restores_the_warm_set() {
        let dir = std::env::temp_dir().join("steady-service-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Unique per process so concurrent test runs don't race on the file.
        let path = dir.join(format!("warmset_{}.json", std::process::id()));

        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let cold = service.query(figure2_query()).unwrap();
        assert_eq!(cold.via, ServedVia::Solve);
        assert_eq!(service.snapshot(&path).unwrap(), 1);
        drop(service);

        let restored =
            Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() }.preload(&path));
        let served = restored.query(figure2_query()).unwrap();
        assert_eq!(served.via, ServedVia::Cache, "restored entries serve without a solve");
        assert_eq!(served.answer.throughput, cold.answer.throughput);
        assert_eq!(restored.stats().solves, 0);

        // The snapshot also carried the structural class's basis seed: the
        // restarted service's very FIRST drifted solve (same topology and
        // roles as Figure 2, scaled costs — a cache miss) triages against
        // it instead of going cold.
        let instance = figure2();
        let mut drifted_platform = steady_platform::Platform::new();
        for id in instance.platform.node_ids() {
            let node = instance.platform.node(id);
            drifted_platform.add_node(node.name.clone(), node.speed.clone());
        }
        for id in instance.platform.edge_ids() {
            let e = instance.platform.edge(id);
            drifted_platform.add_edge(e.from, e.to, &e.cost * &rat(9, 8));
        }
        let drifted = Query {
            platform: drifted_platform,
            collective: Collective::Scatter { source: instance.source, targets: instance.targets },
        };
        let served = restored.query(drifted).unwrap();
        assert_eq!(served.via, ServedVia::Solve);
        let stats = restored.stats();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.triaged, 1, "the restored basis seed fed the first drifted solve");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shutdown_joins_workers() {
        let service = Service::start(ServiceConfig { workers: 3, ..ServiceConfig::default() });
        let _ = service.query(figure2_query()).unwrap();
        drop(service); // must not hang
    }

    #[test]
    fn prefetched_answers_land_as_cache_hits_and_stay_exact() {
        use steady_platform::generators::heterogeneous_star;

        let star_scatter = |costs: &[steady_rational::Ratio]| {
            let (platform, center, leaves) = heterogeneous_star(costs);
            Query { platform, collective: Collective::Scatter { source: center, targets: leaves } }
        };
        let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        // Demand-solve the base platform so its class has a basis seed.
        let base = star_scatter(&[rat(1, 2), rat(1, 3), rat(1, 4)]);
        let class = base.structural_fingerprint().0;
        let cold = service.query(base).unwrap();
        assert_eq!(cold.via, ServedVia::Solve);
        assert!(service.class_basis(class).is_some(), "the demand solve published its basis");

        // Speculatively pre-solve a predicted drifted platform.
        let predicted = star_scatter(&[rat(17, 32), rat(1, 3), rat(1, 4)]);
        let expected = crate::query::solve_query(&predicted, false).unwrap();
        let queued = service
            .schedule_prefetch([PrefetchJob { query: predicted.clone(), predicted_exit: true }]);
        assert_eq!(queued, 1);
        assert!(service.await_prefetch_idle(Duration::from_secs(20)), "prefetch never drained");

        // The prediction comes true: the demand query is a pure cache hit,
        // attributed to the prefetch, and exactly equal to a cold solve.
        let served = service.query(predicted).unwrap();
        assert_eq!(served.via, ServedVia::Cache);
        assert_eq!(served.answer.throughput, expected.throughput);
        let stats = service.stats();
        assert_eq!(stats.prefetched, 1);
        assert_eq!(stats.prefetch_hits, 1);
        assert_eq!(stats.predicted_exits, 1);
        assert_eq!(stats.prefetch_wasted, 0);
        assert_eq!(stats.solves, 1, "only the base platform needed a demand solve");
        assert!((stats.prefetch_hit_fraction() - 0.5).abs() < 1e-12);

        // A second landing on the same entry is an ordinary hit.
        let _ = service.query(star_scatter(&[rat(17, 32), rat(1, 3), rat(1, 4)])).unwrap();
        assert_eq!(service.stats().prefetch_hits, 1, "a prefetch lands at most once");
    }

    #[test]
    fn duplicate_and_cached_prefetches_are_dropped() {
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let query = figure2_query();
        let _ = service.query(query.clone()).unwrap();

        // Already cached fresh: the speculative job is dropped on pickup.
        service.schedule_prefetch([
            PrefetchJob { query: query.clone(), predicted_exit: false },
            PrefetchJob { query, predicted_exit: false },
        ]);
        assert!(service.await_prefetch_idle(Duration::from_secs(20)));
        let stats = service.stats();
        assert_eq!(stats.prefetched, 0, "nothing was speculatively solved");
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.prefetch_hits, 0);
    }

    #[test]
    fn prefetch_runs_even_without_demand_traffic() {
        // An idle pool must drain the queue on its own — no demand query is
        // ever submitted.
        let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let queued = service
            .schedule_prefetch([PrefetchJob { query: figure2_query(), predicted_exit: false }]);
        assert_eq!(queued, 1);
        assert!(service.await_prefetch_idle(Duration::from_secs(20)));
        let stats = service.stats();
        assert_eq!(stats.prefetched, 1);
        assert_eq!(stats.cached_entries, 1);
        assert_eq!(stats.solves, 0);
        assert_eq!(stats.queries, 0);
    }

    #[test]
    fn hits_are_served_while_the_only_worker_is_solving() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use steady_platform::generators::{random_connected, RandomConfig};

        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let warm = figure2_query();
        assert_eq!(service.query(warm.clone()).unwrap().via, ServedVia::Solve);

        // Pin the lone worker with a reduce LP that runs for orders of
        // magnitude longer than a hit takes.
        let slow = {
            let config = RandomConfig { nodes: 8, ..RandomConfig::default() };
            let platform = random_connected(&config, &mut StdRng::seed_from_u64(2));
            let participants: Vec<NodeId> = platform.node_ids().collect();
            Query {
                platform,
                collective: Collective::Reduce {
                    participants,
                    target: NodeId(0),
                    size: rat(1, 1),
                    task_cost: rat(1, 1),
                },
            }
        };
        let slow_response = service.submit(slow);
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().solves < 2 {
            assert!(Instant::now() < deadline, "slow solve never started");
            std::thread::sleep(Duration::from_millis(1));
        }

        // No worker is free, and none is needed: hits are answered here,
        // through `query` and through `submit` alike.
        assert_eq!(service.query(warm.clone()).unwrap().via, ServedVia::Cache);
        let submitted = service.submit(warm).try_recv().expect("a hit is in the channel already");
        assert_eq!(submitted.unwrap().via, ServedVia::Cache);
        assert!(slow_response.try_recv().is_err(), "the worker is still busy with the slow solve");
        assert!(slow_response.recv().unwrap().is_ok());
        let stats = service.stats();
        assert_eq!((stats.queries, stats.hits, stats.solves), (4, 2, 2));
    }

    /// Concurrent callers seal their hits' traces into their own caller-side
    /// rings, not into one shared ring: everything is accounted for, and the
    /// callers did not all land in the same place.
    #[test]
    fn concurrent_callers_trace_hits_into_their_own_rings() {
        const CALLERS: usize = 4;
        const HITS: usize = 500;
        let service =
            Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() }.traced());
        let _ = service.query(figure2_query()).unwrap();
        let _ = service.drain_traces();
        std::thread::scope(|scope| {
            for _ in 0..CALLERS {
                scope.spawn(|| {
                    for _ in 0..HITS {
                        assert_eq!(service.query(figure2_query()).unwrap().via, ServedVia::Cache);
                    }
                });
            }
        });
        let traces = service.drain_traces();
        assert_eq!(traces.len() as u64 + service.traces_dropped(), (CALLERS * HITS) as u64);
        assert!(traces.iter().all(|t| t.lane == INLINE_LANE && t.outcome == "cache"));
        let mut rings: Vec<u32> = traces.iter().map(|t| t.worker).collect();
        rings.sort_unstable();
        rings.dedup();
        assert!(rings.len() > 1, "every caller funnelled into ring {rings:?}");
    }

    /// A proactive refresh runs start to finish on a worker — front half
    /// included — and goes through the same lookup as demand traffic: a fresh
    /// entry is left alone, an expired one is revalidated before anyone asks.
    #[test]
    fn scheduled_revalidations_look_up_and_refresh_on_a_worker() {
        let service = Service::start(
            ServiceConfig { workers: 1, ttl: Some(0), ..ServiceConfig::default() }.traced(),
        );
        let cold = service.query(figure2_query()).unwrap();

        assert_eq!(service.schedule_revalidation([figure2_query()]), 1);
        assert!(service.await_prefetch_idle(Duration::from_secs(20)));
        let stats = service.stats();
        assert_eq!((stats.queries, stats.hits, stats.solves), (2, 1, 1), "fresh: left alone");

        service.advance_epoch();
        assert_eq!(service.schedule_revalidation([figure2_query()]), 1);
        assert!(service.await_prefetch_idle(Duration::from_secs(20)));
        let stats = service.stats();
        assert_eq!((stats.expired, stats.revalidations, stats.solves), (1, 1, 2));

        let served = service.query(figure2_query()).unwrap();
        assert_eq!(served.via, ServedVia::Cache, "refreshed before the demand query arrived");
        assert_eq!(served.answer.throughput, cold.answer.throughput);

        let traces = service.drain_traces();
        let refreshes: Vec<_> = traces.iter().filter(|t| t.lane == "revalidation").collect();
        let outcomes: Vec<_> = refreshes.iter().map(|t| t.outcome).collect();
        assert_eq!(outcomes, ["cache", "revalidated"]);
        let metrics = service.metrics();
        let count = |name: &str| metrics.histogram(name).unwrap().count();
        assert_eq!(count("lane_revalidation_wait_nanos"), 2);
        assert_eq!(count("lane_demand_wait_nanos"), 1, "only the cold demand query queued");
        assert_eq!(count("stage_lookup_nanos"), 4);
    }

    #[test]
    fn tracing_off_records_no_traces_but_metrics_stay_on() {
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        assert!(!service.tracing_enabled());
        let _ = service.query(figure2_query()).unwrap();
        let _ = service.query(figure2_query()).unwrap();
        assert!(service.drain_traces().is_empty());
        assert_eq!(service.traces_dropped(), 0);
        // Metrics are on regardless of tracing.  The hit stopped on this
        // thread after its lookup: lookup + publish + e2e_hit samples and no
        // queue or lane wait, so `lane_demand_wait.count == queries - hits`.
        let metrics = service.metrics();
        let count = |name: &str| metrics.histogram(name).unwrap().count();
        assert_eq!(metrics.counter("queries"), Some(2));
        assert_eq!(metrics.counter("hits"), Some(1));
        assert_eq!(count("stage_lookup_nanos"), 2);
        assert_eq!(count("lane_demand_wait_nanos"), 1);
        assert_eq!(count("stage_publish_nanos"), 2);
        assert_eq!(count("e2e_hit_nanos"), 1);
        let solved = metrics.histogram("stage_solve_cold_nanos").unwrap().count()
            + metrics.histogram("stage_solve_warm_nanos").unwrap().count();
        assert_eq!(solved, 1);
        // The warm/cold tallies are those histograms' counts and sums.
        let stats = service.stats();
        let cold = metrics.histogram("stage_solve_cold_nanos").unwrap();
        assert_eq!((stats.cold_solves, stats.cold_solve_nanos), (cold.count(), cold.sum()));
        assert_eq!(metrics.counter("cold_solves"), Some(stats.cold_solves));
    }

    /// The acceptance criterion: a traced query's stage spans are adjacent
    /// and sum exactly to its end-to-end latency, for hits and solves alike.
    #[test]
    fn traced_queries_produce_span_complete_traces() {
        let service =
            Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() }.traced());
        assert!(service.tracing_enabled());
        let _ = service.query(figure2_query()).unwrap();
        let _ = service.query(figure2_query()).unwrap();
        let traces = service.drain_traces();
        assert_eq!(traces.len(), 2, "one trace per query");
        assert_eq!(service.traces_dropped(), 0);

        let solve = traces.iter().find(|t| t.outcome.starts_with("solve")).expect("a solve trace");
        assert_eq!(solve.lookup, "miss");
        assert!(solve.solve_done_nanos > solve.solve_start_nanos, "the LP solve takes time");
        assert_eq!(solve.lane, "demand");
        assert!(solve.admitted_nanos >= solve.lookup_done_nanos, "queued after its lookup");
        let hit = traces.iter().find(|t| t.outcome == "cache").expect("a cache trace");
        assert_eq!(hit.lookup, "hit");
        // The hit never left this thread: no lane, no queue span, and its
        // trace sits in this thread's caller-side ring.
        assert_eq!(hit.lane, INLINE_LANE);
        assert_eq!(hit.admitted_nanos, hit.lookup_done_nanos, "a hit has a zero queue span");
        assert_eq!(hit.worker as usize, caller_ring());

        for t in &traces {
            let sum: u64 = t.stages().iter().map(|&(_, s, e)| e - s).sum();
            assert_eq!(sum, t.total_nanos(), "stage spans must sum to e2e: {t:?}");
            for window in t.stages().windows(2) {
                assert_eq!(window[0].2, window[1].1, "stages must be adjacent: {t:?}");
            }
        }

        // The drained traces render as loadable Chrome trace JSON.
        let json = crate::obs::chrome_trace_json(&traces, &[]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"solve\""));

        // A second drain returns nothing new.
        assert!(service.drain_traces().is_empty());
    }

    #[test]
    fn manual_clock_drives_deterministic_timestamps() {
        use crate::obs::{Clock, ManualClock};

        let clock = Arc::new(ManualClock::new());
        clock.advance(1_000);
        let service = Service::start_with_clock(
            ServiceConfig { workers: 1, ..ServiceConfig::default() }.traced(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let _ = service.query(figure2_query()).unwrap();
        let traces = service.drain_traces();
        assert_eq!(traces.len(), 1);
        // A frozen clock means every span is zero-length and every stamp is
        // exactly the clock's value — fully deterministic observability.
        assert_eq!(traces[0].submitted_nanos, 1_000);
        assert_eq!(traces[0].end_nanos, 1_000);
        assert_eq!(traces[0].total_nanos(), 0);
        assert_eq!(service.metrics().histogram("e2e_solve_cold_nanos").unwrap().max(), 0);
    }

    #[test]
    fn metrics_render_json_and_prometheus() {
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let _ = service.query(figure2_query()).unwrap();
        let metrics = service.metrics();
        let json = metrics.to_json();
        assert!(json.contains("\"schema_version\": 4"), "{json}");
        assert!(json.contains("\"queries\": 1"), "{json}");
        assert!(json.contains("\"lane_demand_wait_nanos\""), "{json}");
        let prom = metrics.to_prometheus();
        assert!(prom.contains("steady_queries_total 1"), "{prom}");
        assert!(prom.contains("# TYPE steady_lane_demand_wait_nanos histogram"), "{prom}");
        assert!(prom.contains("steady_cached_entries 1"), "{prom}");
    }

    /// The solver health histograms are always on (no tracing needed) and
    /// reach both expositions: one solve means one sample in
    /// each, and a cold figure-2 scatter spends at least one pivot.
    #[test]
    fn solver_histograms_reach_the_expositions() {
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let _ = service.query(figure2_query()).unwrap();
        let metrics = service.metrics();
        for name in [
            "solver_pivots",
            "solver_degenerate_pivots",
            "solver_bland_pivots",
            "solver_peak_eta",
            "solver_refactorizations",
        ] {
            let h = metrics.histogram(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(h.count(), 1, "{name} must sample once per solve");
        }
        assert!(metrics.histogram("solver_pivots").unwrap().sum() > 0);
        // Figure 2 takes a handful of pivots, far below the eta interval.
        assert_eq!(metrics.histogram("solver_refactorizations").unwrap().sum(), 0);
        let json = metrics.to_json();
        assert!(json.contains("\"solver_pivots\""), "{json}");
        let prom = metrics.to_prometheus();
        assert!(prom.contains("# TYPE steady_solver_pivots histogram"), "{prom}");
        assert!(prom.contains("steady_solver_pivots_count 1"), "{prom}");
        assert!(prom.contains("steady_solver_bland_pivots_count 1"), "{prom}");
    }

    /// Tracing alone records a traced query's solver events: the answer is
    /// `Ratio`-equal to an untraced service's, and the trace carries the
    /// solver's install, phase-2 and certify time, whose five buckets nest
    /// inside the measured solve span.
    #[test]
    fn traced_solves_carry_solver_breakdowns_without_changing_answers() {
        let baseline = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let plain = baseline.query(figure2_query()).unwrap();

        let service =
            Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() }.traced());
        let traced = service.query(figure2_query()).unwrap();
        assert_eq!(traced.answer.throughput, plain.answer.throughput);

        let traces = service.drain_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.outcome, "solve-cold");
        assert!(t.solve_install_nanos > 0, "a cold solve installs its crash basis: {t:?}");
        assert!(t.solve_phase2_nanos > 0, "a cold solve records a phase-2 span: {t:?}");
        assert!(t.solve_certify_nanos > 0, "a certified solve records its exact check: {t:?}");
        assert_eq!(t.fallback, "", "figure 2 certifies on the fast path");
        let buckets = t.solve_install_nanos
            + t.solve_phase1_nanos
            + t.solve_dual_nanos
            + t.solve_phase2_nanos
            + t.solve_certify_nanos;
        assert!(
            buckets <= t.solve_done_nanos - t.solve_start_nanos,
            "solver breakdown must nest inside the solve span: {t:?}"
        );
        let json = crate::obs::chrome_trace_json(&traces, &[]);
        assert!(json.contains("\"name\": \"solver.install\""), "{json}");
        assert!(json.contains("\"name\": \"solver.certify\""), "{json}");
    }

    #[test]
    fn coalesced_waiters_get_traces_too() {
        // One worker, slow solve path: park several identical queries so at
        // least some coalesce onto the leader's in-flight solve.
        let service =
            Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() }.traced());
        let replies: Vec<_> = (0..4).map(|_| service.submit(figure2_query())).collect();
        for reply in replies {
            let served = reply.recv().expect("reply");
            assert!(served.is_ok());
        }
        let traces = service.drain_traces();
        assert_eq!(traces.len(), 4, "every query traced, parked or not");
        let coalesced = traces.iter().filter(|t| t.outcome == "coalesced").count();
        assert_eq!(coalesced as u64, service.stats().coalesced);
        let e2e = service.metrics().histogram("e2e_coalesced_nanos").unwrap().count();
        assert_eq!(e2e, service.stats().coalesced);
    }
}
