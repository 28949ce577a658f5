//! The pool: one blocking thread per worker, all pulling straight from the
//! shared lane injector.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::lane::{Lane, LaneCounters, LaneQueues, LaneTask, Popped};
use crate::sync::Mutex;
use crate::{NowFn, Running, Scheduler, WorkerHooks, IDLE_POLL};

/// The thread-per-worker scheduling strategy.
pub struct ThreadPerWorker;

impl<T: Send + 'static> Scheduler<T> for ThreadPerWorker {
    fn name(&self) -> &'static str {
        "thread-per-worker"
    }

    fn start(
        &self,
        workers: usize,
        hooks: Arc<dyn WorkerHooks<T>>,
        now: NowFn,
    ) -> Box<dyn Running<T>> {
        let lanes = Arc::new(LaneQueues::new());
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|worker| {
                let lanes = Arc::clone(&lanes);
                let hooks = Arc::clone(&hooks);
                let now = Arc::clone(&now);
                std::thread::Builder::new()
                    .name(format!("steady-tpw-{worker}"))
                    .spawn(move || worker_loop(worker, &lanes, &*hooks, &now))
                    // Documented fail-fast at startup: if the OS refuses a
                    // thread the pool cannot exist.
                    // lint: allow(panics)
                    .expect("spawn scheduler worker thread")
            })
            .collect();
        Box::new(Pool { lanes, handles: Mutex::new(handles) })
    }
}

struct Pool<T> {
    lanes: Arc<LaneQueues<T>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<T: Send + 'static> Running<T> for Pool<T> {
    fn submit(&self, task: LaneTask<T>) -> bool {
        self.lanes.push(task)
    }

    fn counters(&self) -> LaneCounters {
        self.lanes.counters()
    }

    fn cancel_lane(&self, lane: Lane) -> usize {
        self.lanes.cancel_lane(lane)
    }

    fn backlog(&self) -> usize {
        self.lanes.idle_latch().backlog()
    }

    fn await_background_idle(&self, timeout: Duration) -> bool {
        self.lanes.idle_latch().await_idle(timeout)
    }

    fn shutdown(&self) {
        self.lanes.close();
        let handles: Vec<JoinHandle<()>> = {
            let mut handles = self.handles.lock();
            handles.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<T> Drop for Pool<T> {
    fn drop(&mut self) {
        self.lanes.close();
        for handle in self.handles.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop<T: Send + 'static>(
    worker: usize,
    lanes: &LaneQueues<T>,
    hooks: &dyn WorkerHooks<T>,
    now: &NowFn,
) {
    loop {
        let (task, hook): (_, Hook<T>) = match lanes.pop(now()) {
            Popped::Task(task) => (task, WorkerHooks::run),
            Popped::TimedOut(task) => (task, WorkerHooks::timed_out),
            Popped::Cancelled(task) => (task, WorkerHooks::cancelled),
            Popped::Empty => {
                lanes.wait_for_work(IDLE_POLL);
                continue;
            }
            Popped::Closed => return,
        };
        retire(worker, task, hook, lanes, hooks);
    }
}

/// The [`WorkerHooks`] method a popped task's verdict selects.
type Hook<T> = fn(&dyn WorkerHooks<T>, usize, LaneTask<T>);

/// Hands a popped task to the hook its verdict selected, then retires it
/// from the idle latch.
fn retire<T: Send + 'static>(
    worker: usize,
    task: LaneTask<T>,
    hook: Hook<T>,
    lanes: &LaneQueues<T>,
    hooks: &dyn WorkerHooks<T>,
) {
    let background = task.lane.is_background();
    // Contain panics at the pool boundary, whichever hook raised them: a
    // panicking task must not take down its worker thread or wedge the
    // background-idle latch.
    let _ = catch_unwind(AssertUnwindSafe(|| hook(hooks, worker, task)));
    if background {
        lanes.idle_latch().finish_one();
    }
}
