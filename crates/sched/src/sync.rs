//! Concurrency facade for the scheduler subsystem: every lock, condvar and
//! atomic in `steady-sched` resolves through this module, mirroring
//! `steady_service::sync`.
//!
//! Normally the names map to the real primitives (`parking_lot` locks, `std`
//! atomics).  Under `--cfg steady_loom` they map to the `loom` shim's
//! *modeled* primitives instead, so the model-check suite
//! (`crates/service/tests/loom_models.rs`, model #7) can exhaustively
//! enumerate interleavings of the lane protocol:
//!
//! ```text
//! RUSTFLAGS="--cfg steady_loom" cargo test -p steady-service --test loom_models
//! ```
//!
//! # Lock order
//!
//! Scheduler locks slot into the serving core's documented hierarchy (see
//! `steady_service::sync` for the full table); a thread may only acquire a
//! lock of strictly higher rank than any lock it already holds:
//!
//! | rank | locks                                                          |
//! |------|----------------------------------------------------------------|
//! | 10   | the priority-lane injector: [`LaneQueues`]' `lanes` state      |
//! | 25   | background-idle latch: the [`IdleLatch`] `pending` count       |
//!
//! Pushing a background task bumps the idle latch while holding the lane
//! state (10 → 25), and **never** the reverse.
//!
//! [`LaneQueues`]: crate::lane::LaneQueues
//! [`IdleLatch`]: crate::lane::IdleLatch

#[cfg(not(steady_loom))]
pub use parking_lot::{Condvar, Mutex};

#[cfg(steady_loom)]
pub use loom::sync::{Condvar, Mutex};

/// Atomic integers (modeled under `--cfg steady_loom`).
pub mod atomic {
    #[cfg(not(steady_loom))]
    pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[cfg(steady_loom)]
    pub use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
}
