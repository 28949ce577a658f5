//! `steady-sched`: the scheduler subsystem of the serving core.
//!
//! The engine hands this crate an opaque work-item type and a set of
//! [`WorkerHooks`]; the crate decides *which thread runs which task when*.
//! Work is admitted through three strict [priority lanes](lane::Lane)
//! (demand > revalidation > prefetch) with per-task deadlines and
//! cooperative cancellation, and drained by [`ThreadPerWorker`]: each
//! worker blocks on the shared [`lane::LaneQueues`] injector and runs one
//! task at a time.
//!
//! The [`Scheduler`] / [`Running`] traits are the seam between the engine
//! and whatever drains the lanes.  All synchronization goes through
//! [`sync`], which swaps to loom-modeled primitives under
//! `--cfg steady_loom` for the model-check suite.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lane;
pub mod sync;
mod thread_per_worker;

use std::sync::Arc;
use std::time::Duration;

pub use lane::{CancelToken, Lane, LaneCounters, LaneTask, Popped, LANES};
pub use thread_per_worker::ThreadPerWorker;

/// How long an idle worker parks on the lane condvar before re-polling.
/// Bounds shutdown latency.
pub const IDLE_POLL: Duration = Duration::from_millis(1);

/// Source of monotonic clock readings (nanoseconds), supplied by the
/// engine so deadlines and wait histograms share its (possibly manual)
/// clock.
pub type NowFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// What the scheduler calls back into when a task reaches a worker.  The
/// engine implements this once; the pool drives it.
///
/// Every hook executes on a scheduler worker thread and `run` may block (a
/// cold solve does).  The pool contains a panic from any of the three at
/// this boundary: the worker survives and a background task is still
/// retired from the idle latch — but hook implementations are still
/// expected to do their own `catch_unwind` bookkeeping where replies must
/// be delivered.
pub trait WorkerHooks<T>: Send + Sync + 'static {
    /// Run a live task on worker `worker`.
    fn run(&self, worker: usize, task: LaneTask<T>);

    /// A task's deadline passed while it was queued; it will never run.
    /// Default: drop it.
    fn timed_out(&self, worker: usize, task: LaneTask<T>) {
        let _ = (worker, task);
    }

    /// A task was cancelled while it was queued; it will never run.
    /// Default: drop it.
    fn cancelled(&self, worker: usize, task: LaneTask<T>) {
        let _ = (worker, task);
    }
}

/// A scheduling strategy: turns worker count + hooks + clock into a running
/// pool.
pub trait Scheduler<T: Send + 'static>: Send + Sync {
    /// Stable name (matches [`SchedulerKind::name`]).
    fn name(&self) -> &'static str;

    /// Spawns the pool's worker threads and returns its control handle.
    fn start(
        &self,
        workers: usize,
        hooks: Arc<dyn WorkerHooks<T>>,
        now: NowFn,
    ) -> Box<dyn Running<T>>;
}

/// Control handle for a started pool.
pub trait Running<T: Send + 'static>: Send + Sync {
    /// Enqueues a task on its lane.  Returns `false` (dropping the task)
    /// once the pool is shut down.
    fn submit(&self, task: LaneTask<T>) -> bool;

    /// Snapshot of per-lane depths and event counters.
    fn counters(&self) -> LaneCounters;

    /// Cancels every task still queued on `lane`; returns how many.
    fn cancel_lane(&self, lane: Lane) -> usize;

    /// Background (revalidation + prefetch) tasks scheduled but not yet
    /// finished, including any currently running.
    fn backlog(&self) -> usize;

    /// Blocks until all background tasks finish or `timeout` elapses;
    /// returns whether the pool went background-idle.
    fn await_background_idle(&self, timeout: Duration) -> bool;

    /// Closes the lanes (dropping queued background work), drains queued
    /// demand work, and joins the worker threads.  Idempotent.
    fn shutdown(&self);
}

/// Which [`Scheduler`] implementation to run.  There is one; the enum stays
/// because `benchmark/src/probe.rs` starts its pool through
/// `SchedulerKind::default().build()`, until that is re-pointed at
/// [`ThreadPerWorker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The blocking pool: one thread per worker on the shared lanes.
    #[default]
    ThreadPerWorker,
}

impl SchedulerKind {
    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::ThreadPerWorker => "thread-per-worker",
        }
    }

    /// Instantiates the corresponding [`Scheduler`].
    pub fn build<T: Send + 'static>(self) -> Box<dyn Scheduler<T>> {
        match self {
            SchedulerKind::ThreadPerWorker => Box::new(ThreadPerWorker),
        }
    }
}

#[cfg(all(test, not(steady_loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingHooks {
        ran: AtomicU64,
        timed_out: AtomicU64,
        cancelled: AtomicU64,
    }

    impl CountingHooks {
        fn new() -> Arc<Self> {
            Arc::new(CountingHooks {
                ran: AtomicU64::new(0),
                timed_out: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
            })
        }
    }

    impl WorkerHooks<u64> for CountingHooks {
        fn run(&self, _worker: usize, task: LaneTask<u64>) {
            // relaxed: test-only counter.
            self.ran.fetch_add(task.payload, Ordering::Relaxed);
        }
        fn timed_out(&self, _worker: usize, _task: LaneTask<u64>) {
            // relaxed: test-only counter.
            self.timed_out.fetch_add(1, Ordering::Relaxed);
        }
        fn cancelled(&self, _worker: usize, _task: LaneTask<u64>) {
            // relaxed: test-only counter.
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn wall_now() -> NowFn {
        let epoch = std::time::Instant::now();
        Arc::new(move || epoch.elapsed().as_nanos() as u64)
    }

    #[test]
    fn thread_per_worker_runs_every_lane() {
        let hooks = CountingHooks::new();
        let pool = ThreadPerWorker.start(3, hooks.clone(), wall_now());
        let mut expected = 0u64;
        for i in 1..=50u64 {
            let lane = match i % 3 {
                0 => Lane::Demand,
                1 => Lane::Revalidation,
                _ => Lane::Prefetch,
            };
            expected += i;
            assert!(pool.submit(LaneTask::new(i, lane, 0)));
        }
        assert!(pool.await_background_idle(Duration::from_secs(10)));
        pool.shutdown();
        assert!(!pool.submit(LaneTask::new(1, Lane::Demand, 0)));
        assert_eq!(hooks.ran.load(Ordering::Relaxed), expected);
        assert_eq!(hooks.timed_out.load(Ordering::Relaxed), 0);
        let counters = pool.counters();
        assert_eq!(counters.popped.iter().sum::<u64>(), 50);
        assert_eq!(counters.depth, [0, 0, 0]);
    }

    #[test]
    fn cancelled_prefetch_reaches_the_cancel_hook() {
        let hooks = CountingHooks::new();
        // Zero workers: tasks stay queued, so cancellation is
        // deterministic; a late-started worker must observe it.
        let pool = ThreadPerWorker.start(0, hooks.clone(), wall_now());
        let task = LaneTask::new(7, Lane::Prefetch, 0);
        let token = task.cancel.clone();
        assert!(pool.submit(task));
        token.cancel();
        assert_eq!(pool.backlog(), 1);
        assert_eq!(pool.cancel_lane(Lane::Prefetch), 1);
        assert_eq!(pool.backlog(), 0);
        pool.shutdown();
        assert_eq!(hooks.ran.load(Ordering::Relaxed), 0);
        assert_eq!(pool.counters().prefetch_cancelled(), 1);
    }

    /// Hooks whose `cancelled` verdict panics; `run` reports the payload.
    struct PanickingCancel(std::sync::mpsc::Sender<u64>);

    impl WorkerHooks<u64> for PanickingCancel {
        fn run(&self, _worker: usize, task: LaneTask<u64>) {
            let _ = self.0.send(task.payload);
        }
        fn cancelled(&self, _worker: usize, _task: LaneTask<u64>) {
            panic!("cancelled hook panics");
        }
    }

    #[test]
    fn a_panicking_cancel_hook_neither_kills_the_worker_nor_wedges_the_latch() {
        let (sender, ran) = std::sync::mpsc::channel();
        let pool = ThreadPerWorker.start(1, Arc::new(PanickingCancel(sender)), wall_now());
        // Latched before the push, so the only worker pops `Cancelled`.
        let doomed = LaneTask::new(7, Lane::Prefetch, 0);
        doomed.cancel.cancel();
        assert!(pool.submit(doomed));
        assert!(pool.await_background_idle(Duration::from_secs(10)));
        assert!(pool.submit(LaneTask::new(8, Lane::Demand, 0)));
        assert_eq!(ran.recv_timeout(Duration::from_secs(10)), Ok(8));
        pool.shutdown();
    }
}
