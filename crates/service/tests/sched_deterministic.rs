//! Deterministic scheduler-lane semantics under a [`ManualClock`]: demand
//! deadlines fire exactly when the (frozen, hand-advanced) clock says so
//! (a shed revalidation serving its expired answer), and cancelled prefetch
//! tasks never publish to the cache.

use std::sync::Arc;
use std::time::Duration;

use steady_service::obs::ManualClock;
use steady_service::{query_mix, ServeError, ServedVia, Service, ServiceConfig};

fn start(clock: &Arc<ManualClock>, demand_deadline: Option<Duration>) -> Service {
    Service::start_with_clock(
        ServiceConfig { workers: 1, demand_deadline, ..ServiceConfig::default() },
        Arc::clone(clock) as Arc<dyn steady_service::Clock>,
    )
}

/// With a zero demand deadline and a frozen manual clock, every demand
/// task's deadline has already passed at vetting time (`now == enqueue ==
/// deadline`), so the lane sheds it deterministically: the caller sees
/// [`ServeError::Shed`], the timeout counter ticks, and no solve runs.
#[test]
fn demand_lane_timeouts_fire_on_the_manual_clock() {
    let clock = Arc::new(ManualClock::new());
    let service = start(&clock, Some(Duration::ZERO));
    let mix = query_mix(4, 7);
    for query in &mix[..3] {
        match service.query(query.clone()) {
            Err(ServeError::Shed) => {}
            other => panic!("expected a deadline shed, got {other:?}"),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.demand_timeouts, 3, "every demand task must time out");
    assert_eq!(stats.shed, 3, "every shed reply is counted");
    assert_eq!(stats.solves, 0, "a timed-out task must never solve");
}

/// The deadline sheds a revalidation too, but an expired entry is a better
/// reply than an error: the caller gets the stale answer
/// ([`ServedVia::StaleFallback`]), counted as served stale, not as shed.
/// The entry is installed by a prefetch (that lane carries no deadline),
/// then expired by advancing the epoch under a zero TTL.
#[test]
fn deadline_shed_revalidations_serve_the_expired_answer() {
    let clock = Arc::new(ManualClock::new());
    let service = Service::start_with_clock(
        ServiceConfig {
            workers: 1,
            ttl: Some(0),
            demand_deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn steady_service::Clock>,
    );
    let query = query_mix(1, 7).remove(0);
    let job = steady_service::PrefetchJob { query: query.clone(), predicted_exit: false };
    assert_eq!(service.schedule_prefetch([job]), 1);
    assert!(service.await_prefetch_idle(Duration::from_secs(10)));
    assert_eq!(service.stats().prefetched, 1, "the prefetch installed the entry");
    service.advance_epoch();

    let served = service.query(query).expect("a shed revalidation serves its stale answer");
    assert_eq!(served.via, ServedVia::StaleFallback);
    let stats = service.stats();
    assert_eq!(stats.demand_timeouts, 1, "the revalidation was shed by its deadline");
    assert_eq!(stats.stale_served, 1);
    assert_eq!(stats.shed, 0, "a stale fallback is not a shed error");
    assert_eq!(stats.solves, 0, "a timed-out task must never solve");
}

/// With a generous deadline the same frozen clock never sheds: queries are
/// served normally, the timeout counter stays zero, and the demand lane's
/// wait histogram records the (zero-width) enqueue-to-pickup span of the one
/// query that needed a worker — the repeat is a hit served on this thread,
/// which never enters a lane.
#[test]
fn unexpired_deadlines_never_shed() {
    let clock = Arc::new(ManualClock::new());
    let service = start(&clock, Some(Duration::from_secs(3600)));
    let mix = query_mix(4, 7);
    let first = service.query(mix[0].clone()).expect("an unexpired query must be served");
    assert_eq!(first.via, ServedVia::Solve);
    // Advancing the clock between submissions must not expire anything:
    // deadlines are relative to each task's own enqueue stamp.
    clock.advance(Duration::from_secs(7200).as_nanos() as u64);
    let again = service.query(mix[0].clone()).expect("served after the clock advanced");
    assert_eq!(again.via, ServedVia::Cache);
    let stats = service.stats();
    assert_eq!(stats.demand_timeouts, 0);
    let metrics = service.metrics();
    let count = |name: &str| {
        metrics.histogram(name).unwrap_or_else(|| panic!("{name} is always registered")).count()
    };
    assert_eq!((stats.queries, stats.hits), (2, 1));
    assert_eq!(count("lane_demand_wait_nanos"), stats.queries - stats.hits, "only the miss queued");
    assert_eq!(count("stage_lookup_nanos"), 2, "both were looked up");
    assert_eq!(count("e2e_hit_nanos"), 1, "the hit still feeds its end-to-end histogram");
}

/// Cancelled prefetch tasks never publish: the single worker is pinned to a
/// backlog of higher-priority demand solves, so prefetch jobs scheduled
/// behind them are still queued when `cancel_prefetch` runs — all of them
/// are cancelled, none ever solves, and the cache gains no entries.
#[test]
fn cancelled_prefetch_tasks_never_publish() {
    let clock = Arc::new(ManualClock::new());
    let service = start(&clock, None);
    let mix = query_mix(12, 99);

    // Pin the lone worker: three cold demand solves it must fully
    // drain (strict lane priority) before it could reach any prefetch.
    let replies: Vec<_> = mix[..3].iter().map(|q| service.submit(q.clone())).collect();

    let scheduled = service.schedule_prefetch(
        mix[3..9]
            .iter()
            .map(|q| steady_service::PrefetchJob { query: q.clone(), predicted_exit: false }),
    );
    assert_eq!(scheduled, 6, "every prefetch job must queue");
    let cancelled = service.cancel_prefetch();
    assert_eq!(cancelled, 6, "all queued prefetch jobs must cancel");

    for reply in replies {
        reply.recv().expect("demand reply").expect("demand query failed");
    }
    assert!(service.await_prefetch_idle(Duration::from_secs(10)));

    let stats = service.stats();
    assert_eq!(stats.prefetch_cancelled, 6, "cancel count must stick");
    assert_eq!(stats.prefetched, 0, "a cancelled prefetch ran anyway");
    assert_eq!(stats.cached_entries, 3, "a cancelled prefetch published to the cache");
}
