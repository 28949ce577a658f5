//! Priority lanes: the shared admission queues the workers pull from.
//!
//! Three lanes — demand > revalidation > prefetch — are first-class queues
//! with strict priority: a worker never takes revalidation work while demand
//! work is queued, and never takes prefetch work while either of the other
//! lanes has work.  Every queued task carries an enqueue timestamp, an
//! optional deadline, and a [`CancelToken`] for cooperative cancellation;
//! [`LaneQueues::pop`] turns an expired or cancelled task into a terminal
//! [`Popped`] verdict *before* it reaches a worker, so cancelled prefetch
//! work never runs and demand work that missed its deadline is shed instead
//! of solved.
//!
//! The module also owns the [`IdleLatch`], the background-drain barrier that
//! used to live inside the engine's worker loop as `PrefetchIdle`: it counts
//! scheduled-but-unfinished background tasks (revalidation + prefetch) so
//! tests and benchmarks can await quiescence deterministically.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Condvar, Mutex};

/// The three priority lanes, in descending priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Interactive queries a client is blocked on.  Highest priority; the
    /// only lane whose tasks may carry deadlines that shed work.
    Demand = 0,
    /// Proactive refresh of entries nearing their TTL.  Runs only when no
    /// demand work is queued.
    Revalidation = 1,
    /// Speculative warm-up solves.  Lowest priority, first to be cancelled.
    Prefetch = 2,
}

/// All lanes, in pop (descending-priority) order.
pub const LANES: [Lane; 3] = [Lane::Demand, Lane::Revalidation, Lane::Prefetch];

impl Lane {
    /// Queue index of this lane (0 = highest priority).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name, used for metrics and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Demand => "demand",
            Lane::Revalidation => "revalidation",
            Lane::Prefetch => "prefetch",
        }
    }

    /// Whether tasks in this lane count toward the background [`IdleLatch`].
    pub fn is_background(self) -> bool {
        !matches!(self, Lane::Demand)
    }
}

/// Cooperative cancellation flag shared between a queued task and whoever
/// scheduled it.  Cancellation is a one-way latch: once set, the task is
/// vetted out at pop time (or at drain time) and its payload is dropped
/// without running.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicU64>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken { flag: Arc::new(AtomicU64::new(0)) }
    }

    /// Latches the token; the associated task will never run.
    pub fn cancel(&self) {
        // relaxed: a one-way latch read at pop time under the lane mutex,
        // which already orders the flag with the queue contents; a racing
        // reader that misses the store only runs a task that was still
        // legitimately schedulable when it was popped.
        self.flag.store(1, Ordering::Relaxed);
    }

    /// Whether [`Self::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        // relaxed: see `cancel` — best-effort latch check.
        self.flag.load(Ordering::Relaxed) != 0
    }
}

/// A unit of work queued on a lane.
#[derive(Debug)]
pub struct LaneTask<T> {
    /// The scheduler-opaque payload (the engine's work item).
    pub payload: T,
    /// Which lane the task was admitted on.
    pub lane: Lane,
    /// Clock reading (nanoseconds) when the task was enqueued; used for
    /// per-lane wait histograms.
    pub enqueued_nanos: u64,
    /// Absolute clock deadline (nanoseconds); a task popped at or after its
    /// deadline is shed via [`Popped::TimedOut`] instead of run.
    pub deadline_nanos: Option<u64>,
    /// Cooperative cancellation latch for this task.
    pub cancel: CancelToken,
}

impl<T> LaneTask<T> {
    /// Creates a task with no deadline and a fresh cancel token.
    pub fn new(payload: T, lane: Lane, enqueued_nanos: u64) -> Self {
        LaneTask { payload, lane, enqueued_nanos, deadline_nanos: None, cancel: CancelToken::new() }
    }

    /// Sets an absolute deadline (clock nanoseconds).
    pub fn with_deadline(mut self, deadline_nanos: u64) -> Self {
        self.deadline_nanos = Some(deadline_nanos);
        self
    }

    /// Nanoseconds the task has been waiting, given the current clock.
    pub fn waited_nanos(&self, now: u64) -> u64 {
        now.saturating_sub(self.enqueued_nanos)
    }
}

/// Verdict of a pop.
#[derive(Debug)]
pub enum Popped<T> {
    /// A live task: run it.
    Task(LaneTask<T>),
    /// The task's deadline passed before a worker reached it; shed it.
    TimedOut(LaneTask<T>),
    /// The task's [`CancelToken`] was latched; drop it without running.
    Cancelled(LaneTask<T>),
    /// No work queued right now.
    Empty,
    /// The queues are closed and fully drained; the worker should exit.
    Closed,
}

/// Monotone event counters plus instantaneous depths for the three lanes,
/// indexed by [`Lane::index`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LaneCounters {
    /// Tasks currently queued per lane (instantaneous gauge).
    pub depth: [u64; 3],
    /// Live tasks handed to workers per lane.
    pub popped: [u64; 3],
    /// Tasks vetted out (cancelled, or timed out on a background lane) or
    /// dropped at close, per lane.
    pub cancelled: [u64; 3],
    /// Demand tasks shed because their deadline passed while queued.
    pub demand_timeouts: u64,
}

impl LaneCounters {
    /// Prefetch tasks that were cancelled or dropped before running.
    pub fn prefetch_cancelled(&self) -> u64 {
        self.cancelled[Lane::Prefetch.index()]
    }
}

struct LaneState<T> {
    queues: [VecDeque<LaneTask<T>>; 3],
    closed: bool,
}

/// The shared priority-lane injector the workers pull from.
///
/// A single mutex (`lanes`, rank 10) guards all three queues so the
/// priority invariant — never pop a lower lane while a higher lane has work
/// — holds atomically.  Background pushes bump the [`IdleLatch`] while the
/// lane state is still held (rank 10 → 25), so the latch can never report
/// idle while a background task sits queued.
pub struct LaneQueues<T> {
    lanes: Mutex<LaneState<T>>,
    work: Condvar,
    idle: Arc<IdleLatch>,
    popped: [AtomicU64; 3],
    cancelled: [AtomicU64; 3],
    demand_timeouts: AtomicU64,
}

impl<T> Default for LaneQueues<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LaneQueues<T> {
    /// Creates an empty, open set of lanes.
    pub fn new() -> Self {
        LaneQueues {
            lanes: Mutex::new(LaneState {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
            }),
            work: Condvar::new(),
            idle: Arc::new(IdleLatch::new()),
            popped: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            cancelled: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            demand_timeouts: AtomicU64::new(0),
        }
    }

    /// The background-drain latch tracking scheduled-but-unfinished
    /// revalidation and prefetch tasks.
    pub fn idle_latch(&self) -> &IdleLatch {
        &self.idle
    }

    /// Enqueues a task on its lane.  Returns `false` (dropping the task) if
    /// the queues are closed.
    pub fn push(&self, task: LaneTask<T>) -> bool {
        let background = task.lane.is_background();
        {
            let mut lanes = self.lanes.lock();
            if lanes.closed {
                return false;
            }
            lanes.queues[task.lane.index()].push_back(task);
            if background {
                self.idle.add(1);
            }
        }
        self.work.notify_one();
        true
    }

    /// Pops the front task of the highest-priority non-empty lane and vets
    /// it against the clock reading `now`.
    pub fn pop(&self, now: u64) -> Popped<T> {
        let mut lanes = self.lanes.lock();
        for lane in LANES {
            if let Some(task) = lanes.queues[lane.index()].pop_front() {
                drop(lanes);
                return self.vet(task, now);
            }
        }
        if lanes.closed {
            Popped::Closed
        } else {
            Popped::Empty
        }
    }

    /// Turns a dequeued task into its verdict: cancelled and past-deadline
    /// tasks become terminal [`Popped`] variants (counted), live tasks are
    /// returned to run.
    fn vet(&self, task: LaneTask<T>, now: u64) -> Popped<T> {
        let lane = task.lane.index();
        if task.cancel.is_cancelled() {
            // relaxed: monotone report-only counter.
            self.cancelled[lane].fetch_add(1, Ordering::Relaxed);
            return Popped::Cancelled(task);
        }
        if let Some(deadline) = task.deadline_nanos {
            if now >= deadline {
                if task.lane == Lane::Demand {
                    // relaxed: monotone report-only counter.
                    self.demand_timeouts.fetch_add(1, Ordering::Relaxed);
                } else {
                    // relaxed: monotone report-only counter; an expired
                    // background task is speculative work that never ran,
                    // so it counts with the cancellations.
                    self.cancelled[lane].fetch_add(1, Ordering::Relaxed);
                }
                return Popped::TimedOut(task);
            }
        }
        // relaxed: monotone report-only counter.
        self.popped[lane].fetch_add(1, Ordering::Relaxed);
        Popped::Task(task)
    }

    /// Blocks until work may be available, the queues close, or `timeout`
    /// elapses.  Returns immediately if a lane is already non-empty.
    pub fn wait_for_work(&self, timeout: Duration) {
        let lanes = self.lanes.lock();
        if lanes.closed || lanes.queues.iter().any(|q| !q.is_empty()) {
            return;
        }
        let (_reacquired, _timed_out) = self.work.wait_timeout(lanes, timeout);
    }

    /// Latches every queued task on `lane` as cancelled and drops it from
    /// the queue, returning how many were cancelled.  In-flight tasks are
    /// unaffected (cancellation is cooperative); their tokens — shared with
    /// whoever scheduled them — stay valid.
    pub fn cancel_lane(&self, lane: Lane) -> usize {
        let drained: Vec<LaneTask<T>> = {
            let mut lanes = self.lanes.lock();
            let dropped: Vec<LaneTask<T>> = lanes.queues[lane.index()].drain(..).collect();
            if lane.is_background() {
                self.idle.finish_many(dropped.len());
            }
            dropped
        };
        let count = drained.len();
        // relaxed: monotone report-only counter.
        self.cancelled[lane.index()].fetch_add(count as u64, Ordering::Relaxed);
        for task in &drained {
            task.cancel.cancel();
        }
        count
    }

    /// Closes the queues: queued revalidation and prefetch tasks are
    /// cancelled and dropped (returning the count), demand tasks stay
    /// queued for workers to drain, and once the demand lane empties
    /// [`Self::pop`] returns [`Popped::Closed`].  Further pushes fail.
    pub fn close(&self) -> usize {
        let mut dropped = Vec::new();
        {
            let mut lanes = self.lanes.lock();
            if !lanes.closed {
                lanes.closed = true;
                for lane in [Lane::Revalidation, Lane::Prefetch] {
                    let drained = lanes.queues[lane.index()].drain(..);
                    dropped.extend(drained.map(|t| (lane, t)));
                }
                self.idle.finish_many(dropped.len());
            }
        }
        self.work.notify_all();
        for (lane, task) in &dropped {
            // relaxed: monotone report-only counter.
            self.cancelled[lane.index()].fetch_add(1, Ordering::Relaxed);
            task.cancel.cancel();
        }
        dropped.len()
    }

    /// Instantaneous queue depth per lane.
    pub fn depths(&self) -> [u64; 3] {
        let lanes = self.lanes.lock();
        [lanes.queues[0].len() as u64, lanes.queues[1].len() as u64, lanes.queues[2].len() as u64]
    }

    /// Snapshot of depths and event counters.
    pub fn counters(&self) -> LaneCounters {
        let depth = self.depths();
        let read = |a: &AtomicU64| {
            // relaxed: monotone report-only counter.
            a.load(Ordering::Relaxed)
        };
        LaneCounters {
            depth,
            popped: [read(&self.popped[0]), read(&self.popped[1]), read(&self.popped[2])],
            cancelled: [
                read(&self.cancelled[0]),
                read(&self.cancelled[1]),
                read(&self.cancelled[2]),
            ],
            demand_timeouts: read(&self.demand_timeouts),
        }
    }
}

/// Counts scheduled-but-unfinished background (revalidation + prefetch)
/// tasks, so callers can await quiescence: the lanes bump it on every
/// background push (under the lane lock), and workers — or the drain paths
/// in [`LaneQueues::close`] / [`LaneQueues::cancel_lane`] — retire entries
/// as tasks reach a terminal state (ran, timed out, cancelled, or dropped).
pub struct IdleLatch {
    pending: Mutex<usize>,
    drained: Condvar,
}

impl Default for IdleLatch {
    fn default() -> Self {
        Self::new()
    }
}

impl IdleLatch {
    /// Creates an idle (zero-pending) latch.
    pub fn new() -> Self {
        IdleLatch { pending: Mutex::new(0), drained: Condvar::new() }
    }

    /// Registers `n` newly scheduled background tasks.
    pub fn add(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut pending = self.pending.lock();
        *pending += n;
    }

    /// Retires one background task (any terminal state counts).
    pub fn finish_one(&self) {
        self.finish_many(1);
    }

    /// Retires `n` background tasks at once (used by bulk drains).
    pub fn finish_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let drained = {
            let mut pending = self.pending.lock();
            *pending = pending.saturating_sub(n);
            *pending == 0
        };
        if drained {
            self.drained.notify_all();
        }
    }

    /// Background tasks scheduled but not yet retired.
    pub fn backlog(&self) -> usize {
        *self.pending.lock()
    }

    /// Blocks until the backlog drains to zero or `timeout` elapses;
    /// returns whether the latch went idle.
    pub fn await_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut pending = self.pending.lock();
        while *pending > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (reacquired, _timed_out) = self.drained.wait_timeout(pending, deadline - now);
            pending = reacquired;
        }
        true
    }
}

#[cfg(all(test, not(steady_loom)))]
mod tests {
    use super::*;

    #[test]
    fn pop_respects_strict_lane_priority() {
        let lanes: LaneQueues<u32> = LaneQueues::new();
        assert!(lanes.push(LaneTask::new(3, Lane::Prefetch, 0)));
        assert!(lanes.push(LaneTask::new(2, Lane::Revalidation, 0)));
        assert!(lanes.push(LaneTask::new(1, Lane::Demand, 0)));
        let order: Vec<u32> = (0..3)
            .map(|_| match lanes.pop(10) {
                Popped::Task(t) => t.payload,
                other => panic!("expected task, got {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(matches!(lanes.pop(10), Popped::Empty));
    }

    #[test]
    fn expired_demand_task_times_out_and_counts() {
        let lanes: LaneQueues<&str> = LaneQueues::new();
        lanes.push(LaneTask::new("late", Lane::Demand, 0).with_deadline(100));
        match lanes.pop(100) {
            Popped::TimedOut(t) => assert_eq!(t.payload, "late"),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(lanes.counters().demand_timeouts, 1);
        assert_eq!(lanes.counters().popped, [0, 0, 0]);
    }

    #[test]
    fn cancelled_task_is_vetted_out() {
        let lanes: LaneQueues<&str> = LaneQueues::new();
        let task = LaneTask::new("doomed", Lane::Prefetch, 0);
        let token = task.cancel.clone();
        lanes.push(task);
        assert_eq!(lanes.idle_latch().backlog(), 1);
        token.cancel();
        assert!(matches!(lanes.pop(0), Popped::Cancelled(_)));
        assert_eq!(lanes.counters().prefetch_cancelled(), 1);
    }

    #[test]
    fn cancel_lane_drains_queued_prefetch_and_retires_the_latch() {
        let lanes: LaneQueues<u32> = LaneQueues::new();
        for i in 0..4 {
            lanes.push(LaneTask::new(i, Lane::Prefetch, 0));
        }
        lanes.push(LaneTask::new(99, Lane::Demand, 0));
        assert_eq!(lanes.idle_latch().backlog(), 4);
        assert_eq!(lanes.cancel_lane(Lane::Prefetch), 4);
        assert_eq!(lanes.idle_latch().backlog(), 0);
        assert_eq!(lanes.counters().prefetch_cancelled(), 4);
        assert!(matches!(lanes.pop(0), Popped::Task(t) if t.payload == 99));
    }

    #[test]
    fn close_keeps_demand_and_drops_background() {
        let lanes: LaneQueues<u32> = LaneQueues::new();
        lanes.push(LaneTask::new(1, Lane::Demand, 0));
        lanes.push(LaneTask::new(2, Lane::Revalidation, 0));
        lanes.push(LaneTask::new(3, Lane::Prefetch, 0));
        assert_eq!(lanes.close(), 2);
        assert_eq!(lanes.idle_latch().backlog(), 0);
        assert!(!lanes.push(LaneTask::new(4, Lane::Demand, 0)));
        assert!(matches!(lanes.pop(0), Popped::Task(t) if t.payload == 1));
        assert!(matches!(lanes.pop(0), Popped::Closed));
    }

    #[test]
    fn idle_latch_blocks_until_drained() {
        let latch = Arc::new(IdleLatch::new());
        latch.add(2);
        assert!(!latch.await_idle(Duration::from_millis(10)));
        let latch2 = Arc::clone(&latch);
        let handle = std::thread::spawn(move || {
            latch2.finish_one();
            latch2.finish_one();
        });
        assert!(latch.await_idle(Duration::from_secs(5)));
        handle.join().unwrap();
        assert_eq!(latch.backlog(), 0);
    }
}
