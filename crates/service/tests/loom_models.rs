//! Exhaustive interleaving checks for the serving core's riskiest
//! protocols, run under the deterministic model checker (`shims/loom`).
//! Protocols keep their numbers across revisions: number 2 (the cold-solve
//! admission gate) and number 6 (the solver flight recorder) are retired
//! with what they modeled, so six remain.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg steady_loom" cargo test -p steady-service --test loom_models
//! ```
//!
//! Under that cfg the `steady_service::sync` facade (and `steady_sched`'s
//! own `sync` facade, same switch) resolves every mutex, rwlock, atomic and
//! channel to the modeled primitives, and each test below
//! explores **every** thread interleaving reachable within the preemption
//! bound — not a sampled handful.  Each test prints how many schedules it
//! explored and asserts the count is large enough to be meaningful.
#![cfg(steady_loom)]

use std::sync::Arc;

use loom::thread;
use loom::Builder;

use steady_service::cache::{CacheConfig, Lookup, SolutionCache};
use steady_service::flight::{Flight, SingleFlight};
use steady_service::ledger::PrefetchLedger;
use steady_service::obs::{Ring, TraceSink, CALLER_RINGS};
use steady_service::sync::atomic::{AtomicU64, Ordering};
use steady_service::sync::channel;
use steady_service::sync::Mutex;
use steady_service::QueryTrace;

const KEY: u64 = 7;

/// Runs `f` under every schedule within `builder`'s bounds, prints the
/// exploration size, and asserts the model was big enough to mean something.
fn explore(name: &str, builder: Builder, f: impl Fn() + Send + Sync + 'static) {
    let report = builder.check(f);
    println!(
        "{name}: explored {} schedules (longest: {} decisions)",
        report.schedules, report.max_decisions
    );
    assert!(
        report.schedules > 100,
        "{name}: only {} schedules explored — the model is too small to be meaningful",
        report.schedules
    );
}

/// The serve-side single-flight protocol, as the engine runs it: a locked
/// re-check, then park-or-lead; the leader publishes to the "cache" *before*
/// releasing the flight and fans the answer out to every parked waiter.
fn serve_like(
    flight: &SingleFlight<channel::Sender<u64>>,
    cache: &Mutex<Option<u64>>,
    solves: &AtomicU64,
    reply: channel::Sender<u64>,
) {
    match flight.join_or_lead(KEY, reply, || *cache.lock(), |reply| reply) {
        Flight::Ready(answer, reply) => {
            let _ = reply.send(answer);
        }
        Flight::Parked => {}
        Flight::Leader(reply) => {
            // relaxed: test-only tally, asserted after every thread joined.
            solves.fetch_add(1, Ordering::Relaxed);
            *cache.lock() = Some(42);
            let waiters = flight.complete(KEY);
            let _ = reply.send(42);
            for waiter in waiters {
                let _ = waiter.send(42);
            }
        }
    }
}

/// Protocol 1 — single-flight leader/waiter races: across every
/// interleaving of three identical queries, exactly one solve runs and
/// every caller receives the answer.  No lost wakeup, no double-solve.
#[test]
fn single_flight_never_loses_a_waiter_or_solves_twice() {
    explore("single_flight", Builder::default(), || {
        let flight = Arc::new(SingleFlight::<channel::Sender<u64>>::new());
        let cache = Arc::new(Mutex::new(None::<u64>));
        let solves = Arc::new(AtomicU64::new(0));
        let mut replies = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let (tx, rx) = channel::unbounded();
            replies.push(rx);
            let flight = Arc::clone(&flight);
            let cache = Arc::clone(&cache);
            let solves = Arc::clone(&solves);
            handles.push(thread::spawn(move || serve_like(&flight, &cache, &solves, tx)));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(solves.load(Ordering::Relaxed), 1, "double-solve (or none at all)");
        for reply in replies {
            assert_eq!(reply.try_recv().ok(), Some(42), "a caller lost its wakeup");
        }
        assert!(!flight.contains(KEY), "the flight was never completed");
    });
}

/// Protocol 3 — TTL epoch advance vs insert races: an entry the epoch
/// clock expires underneath a concurrent revalidation is *revalidated* or
/// *served stale*, but never observed as [`Lookup::Miss`] — TTL never makes
/// data vanish.
#[test]
fn ttl_expiry_never_loses_an_entry() {
    explore("ttl_epoch", Builder::default(), || {
        let cache = Arc::new(SolutionCache::<u64>::new(&CacheConfig { capacity: 4, shards: 1 }));
        let epoch = Arc::new(AtomicU64::new(0));
        let ttl = Some(1);
        cache.insert_at(KEY, 42, 0, None);

        let clock = {
            let epoch = Arc::clone(&epoch);
            thread::spawn(move || {
                // relaxed: mirrors `Service::advance_epoch` — the epoch is a
                // lag-tolerant stamp, the model asserts on values not order.
                epoch.fetch_add(1, Ordering::Relaxed);
                epoch.fetch_add(1, Ordering::Relaxed);
            })
        };
        let revalidator = {
            let cache = Arc::clone(&cache);
            let epoch = Arc::clone(&epoch);
            thread::spawn(move || {
                // relaxed: see above — any recent value of the clock is valid.
                let now = epoch.load(Ordering::Relaxed);
                match cache.lookup(KEY, now, ttl) {
                    Lookup::Hit(v) => assert_eq!(v, 42),
                    Lookup::Stale(v) => {
                        assert_eq!(v, 42);
                        cache.insert_at(KEY, 43, epoch.load(Ordering::Relaxed), None);
                    }
                    Lookup::Miss => panic!("the expiring entry vanished mid-revalidation"),
                }
            })
        };
        clock.join().unwrap();
        revalidator.join().unwrap();

        // relaxed: final read after both joins; fully ordered by then.
        let now = epoch.load(Ordering::Relaxed);
        match cache.lookup(KEY, now, ttl) {
            Lookup::Hit(v) | Lookup::Stale(v) => {
                assert!(v == 42 || v == 43, "unexpected value {v}")
            }
            Lookup::Miss => panic!("the entry vanished"),
        }
    });
}

/// Protocol 4 — prefetch-hit claiming: however a record races any number of
/// claimants, a recorded key is claimed **at most once**, and the ledger's
/// accounting (claims + outstanding) stays exact.
#[test]
fn prefetch_claim_is_at_most_once() {
    explore("prefetch_claim", Builder::default(), || {
        let ledger = Arc::new(PrefetchLedger::new());
        let claims = Arc::new(AtomicU64::new(0));
        let recorder = {
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || {
                ledger.record(KEY);
            })
        };
        let claimants: Vec<_> = (0..2)
            .map(|_| {
                let ledger = Arc::clone(&ledger);
                let claims = Arc::clone(&claims);
                thread::spawn(move || {
                    if ledger.claim(KEY) {
                        // relaxed: test-only tally, asserted after join.
                        claims.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        recorder.join().unwrap();
        for claimant in claimants {
            claimant.join().unwrap();
        }
        let claimed = claims.load(Ordering::Relaxed);
        assert!(claimed <= 1, "the key was claimed {claimed} times");
        assert_eq!(
            claimed as usize + ledger.outstanding(),
            1,
            "claim accounting drifted from the recorded key"
        );
    });
}

/// Protocol 5 — the trace rings' lossy-but-accounted contract, through the
/// sink the engine pushes to: two caller threads whose slots wrap onto the
/// **same** caller-side ring (3 pushes into its capacity of 2, forcing
/// wrap-around and writer-writer contention), one of which also pushes to a
/// worker ring, race a concurrent collector drain over every ring.  Across
/// every interleaving **every** pushed trace is either drained or counted
/// dropped — `pushed == drained + buffered + dropped` exactly, summed over
/// worker and caller-side rings — no trace is lost *and* uncounted, and
/// nothing is duplicated.
#[test]
fn trace_ring_loses_nothing_uncounted() {
    explore("trace_ring", Builder::default(), || {
        let sink = Arc::new(TraceSink::new(1, 2, true));
        let drained = Arc::new(Mutex::new(Vec::new()));

        let pushes: [Vec<(Ring, u64)>; 2] = [
            vec![(Ring::Caller(0), 0), (Ring::Caller(0), 1)],
            vec![(Ring::Caller(CALLER_RINGS), 2), (Ring::Worker(0), 3)],
        ];
        let writers: Vec<_> = pushes
            .into_iter()
            .map(|pushes| {
                let sink = Arc::clone(&sink);
                thread::spawn(move || {
                    for (ring, id) in pushes {
                        sink.push(ring, QueryTrace::begin(id, 0));
                    }
                })
            })
            .collect();
        let collector = {
            let sink = Arc::clone(&sink);
            let drained = Arc::clone(&drained);
            thread::spawn(move || {
                let batch = sink.drain();
                drained.lock().extend(batch);
            })
        };
        for writer in writers {
            writer.join().unwrap();
        }
        collector.join().unwrap();

        let mut got = drained.lock().clone();
        got.extend(sink.drain());
        let mut ids: Vec<u64> = got.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "a trace was duplicated: {ids:?}");
        assert!(ids.iter().all(|&id| id < 4), "unknown trace id in {ids:?}");
        assert_eq!(
            ids.len() as u64 + sink.dropped(),
            4,
            "a trace was lost without being counted dropped ({} drained, {} dropped)",
            ids.len(),
            sink.dropped()
        );
        assert!(sink.drain().is_empty(), "the final drain left traces buffered");
    });
}

/// Protocol 7 — the scheduler's priority-lane pop protocol
/// (`steady_sched`): two workers popping the shared injector race each
/// other and a canceller going for the queued prefetch task.  Across every
/// interleaving each demand task runs exactly once (never duplicated, never
/// lost), the prefetch task either runs exactly once or is cancelled
/// without running (never both), and the background idle latch always
/// drains back to zero.
#[test]
fn lane_pop_runs_each_task_exactly_once() {
    use steady_sched::lane::LaneQueues;
    use steady_sched::{Lane, LaneTask, Popped};

    explore("lane_pop", Builder::default(), || {
        let lanes: Arc<LaneQueues<u64>> = Arc::new(LaneQueues::new());
        let ran = Arc::new(Mutex::new(Vec::new()));

        // Retires a pop verdict the way the pool does: live tasks "run"
        // (recorded), terminal background verdicts retire the idle latch.
        fn retire(lanes: &LaneQueues<u64>, ran: &Mutex<Vec<u64>>, verdict: Popped<u64>) {
            match verdict {
                Popped::Task(task) => {
                    ran.lock().push(task.payload);
                    if task.lane.is_background() {
                        lanes.idle_latch().finish_one();
                    }
                }
                Popped::TimedOut(task) | Popped::Cancelled(task) => {
                    if task.lane.is_background() {
                        lanes.idle_latch().finish_one();
                    }
                }
                Popped::Empty | Popped::Closed => {}
            }
        }

        lanes.push(LaneTask::new(1, Lane::Demand, 0));
        lanes.push(LaneTask::new(2, Lane::Demand, 0));
        lanes.push(LaneTask::new(10, Lane::Prefetch, 0));

        // Two turns of the worker loop each: between them the workers can
        // take every queued task, or leave some for the final drain.
        let worker = || {
            let lanes = Arc::clone(&lanes);
            let ran = Arc::clone(&ran);
            thread::spawn(move || {
                for _ in 0..2 {
                    let verdict = lanes.pop(0);
                    retire(&lanes, &ran, verdict);
                }
            })
        };
        let (first, second) = (worker(), worker());
        let canceller = {
            let lanes = Arc::clone(&lanes);
            thread::spawn(move || lanes.cancel_lane(Lane::Prefetch))
        };
        first.join().unwrap();
        second.join().unwrap();
        let cancelled = canceller.join().unwrap();

        // Main drains whatever the racing workers left behind, exactly like
        // a worker observing the close.
        loop {
            match lanes.pop(0) {
                Popped::Empty | Popped::Closed => break,
                verdict => retire(&lanes, &ran, verdict),
            }
        }

        let mut ran = ran.lock().clone();
        ran.sort_unstable();
        let demand: Vec<u64> = ran.iter().copied().filter(|&p| p < 10).collect();
        assert_eq!(demand, vec![1, 2], "demand tasks must each run exactly once: {ran:?}");
        let prefetch_runs = ran.iter().filter(|&&p| p == 10).count();
        assert!(prefetch_runs <= 1, "the prefetch task ran twice");
        assert_eq!(
            prefetch_runs + cancelled,
            1,
            "the prefetch task must run once XOR be cancelled ({prefetch_runs} runs, \
             {cancelled} cancelled)"
        );
        assert_eq!(lanes.idle_latch().backlog(), 0, "the idle latch never drained");
        assert_eq!(lanes.depths(), [0, 0, 0], "a task was stranded in a lane");
    });
}

/// Protocol 8 — the inline front half, as the engine runs it: callers do
/// one epoch read and one counted cache lookup **on their own threads**,
/// return a fresh hit right there, and hand anything else — with the epoch
/// they read — to the worker, which re-checks under the single-flight lock
/// before solving, publishes to the cache *before* completing the flight,
/// and replies.  The cache starts with a prefetched entry nobody landed on
/// that the TTL expired before the run (stamped epoch 0, `ttl` 1, clock at
/// 2), and an `advance_epoch` races everything.  Across every interleaving:
/// every caller gets exactly one answer; the key is solved exactly once (a
/// miss racing the publish is fed by the re-check, never re-solved); every
/// answer — inline hit or reply — is the published value, so no caller,
/// whichever side of the advance it read the epoch on, is served the entry
/// that had already expired at that epoch; the expired prefetch is claimed
/// once, by the solve, as wasted; and both tables drain to empty.
#[test]
fn inline_lookup_never_double_solves_or_serves_expired() {
    const OLD: u64 = 1;
    const NEW: u64 = 2;
    explore("inline_lookup", Builder::default(), || {
        let cache = Arc::new(SolutionCache::<u64>::new(&CacheConfig { capacity: 4, shards: 1 }));
        let flight = Arc::new(SingleFlight::<channel::Sender<u64>>::new());
        let ledger = Arc::new(PrefetchLedger::new());
        let epoch = Arc::new(AtomicU64::new(2));
        let ttl = Some(1);
        cache.insert_at(KEY, OLD, 0, None);
        ledger.record(KEY);
        let solves = Arc::new(AtomicU64::new(0));
        let wasted = Arc::new(AtomicU64::new(0));
        let prefetch_hits = Arc::new(AtomicU64::new(0));
        // The demand lane: (reply channel, the epoch the caller read).
        let (lane, lane_rx) = channel::unbounded::<(channel::Sender<u64>, u64)>();

        let callers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let ledger = Arc::clone(&ledger);
                let epoch = Arc::clone(&epoch);
                let prefetch_hits = Arc::clone(&prefetch_hits);
                let lane = lane.clone();
                thread::spawn(move || {
                    // relaxed: mirrors `Shared::now` — a lag-tolerant stamp.
                    let now = epoch.load(Ordering::Relaxed);
                    match cache.lookup(KEY, now, ttl) {
                        Lookup::Hit(value) => {
                            if ledger.claim(KEY) {
                                // relaxed: test-only tally, asserted after join.
                                prefetch_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            value
                        }
                        Lookup::Stale(_) | Lookup::Miss => {
                            let (reply, response) = channel::unbounded();
                            assert!(lane.send((reply, now)).is_ok(), "the worker left early");
                            drop(lane);
                            let value = response.recv().expect("a caller lost its answer");
                            assert!(response.try_recv().is_err(), "a caller was answered twice");
                            value
                        }
                    }
                })
            })
            .collect();
        drop(lane);
        let worker = {
            let cache = Arc::clone(&cache);
            let flight = Arc::clone(&flight);
            let ledger = Arc::clone(&ledger);
            let epoch = Arc::clone(&epoch);
            let solves = Arc::clone(&solves);
            let wasted = Arc::clone(&wasted);
            let prefetch_hits = Arc::clone(&prefetch_hits);
            thread::spawn(move || {
                while let Ok((reply, now)) = lane_rx.recv() {
                    let recheck = || cache.peek_fresh(KEY, now, ttl);
                    match flight.join_or_lead(KEY, reply, recheck, |reply| reply) {
                        Flight::Ready(value, reply) => {
                            if ledger.claim(KEY) {
                                // relaxed: test-only tally, asserted after join.
                                prefetch_hits.fetch_add(1, Ordering::Relaxed);
                            }
                            let _ = reply.send(value);
                        }
                        Flight::Parked => panic!("a lone worker found a flight in progress"),
                        Flight::Leader(reply) => {
                            // relaxed: test-only tallies, asserted after join.
                            solves.fetch_add(1, Ordering::Relaxed);
                            if ledger.claim(KEY) {
                                wasted.fetch_add(1, Ordering::Relaxed);
                            }
                            // relaxed: as `Shared::now`.
                            cache.insert_at(KEY, NEW, epoch.load(Ordering::Relaxed), None);
                            let waiters = flight.complete(KEY);
                            let _ = reply.send(NEW);
                            for waiter in waiters {
                                let _ = waiter.send(NEW);
                            }
                        }
                    }
                }
            })
        };
        // relaxed: mirrors `Service::advance_epoch`.
        epoch.fetch_add(1, Ordering::Relaxed);

        for caller in callers {
            let value = caller.join().unwrap();
            assert_eq!(value, NEW, "served the entry the TTL had expired, not the publish");
        }
        worker.join().unwrap();
        assert_eq!(solves.load(Ordering::Relaxed), 1, "the key was solved twice (or never)");
        assert_eq!(wasted.load(Ordering::Relaxed), 1, "the expired prefetch was not claimed");
        assert_eq!(prefetch_hits.load(Ordering::Relaxed), 0, "the prefetch was claimed twice");
        assert!(!flight.contains(KEY), "the flight was never completed");
        assert_eq!(ledger.outstanding(), 0, "the ledger did not drain");
    });
}
