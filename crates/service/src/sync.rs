//! Concurrency facade: every lock, atomic and channel the serving core uses
//! resolves through this module.
//!
//! Normally the names map to the real primitives (`parking_lot` locks,
//! `crossbeam` channels, `std` atomics).  Under `--cfg steady_loom` they map
//! to the `loom` shim's *modeled* primitives instead, so the model-check
//! suite (`tests/loom_models.rs`) can exhaustively enumerate thread
//! interleavings of the protocols built on top:
//!
//! ```text
//! RUSTFLAGS="--cfg steady_loom" cargo test -p steady-service --test loom_models
//! ```
//!
//! # Lock order
//!
//! The serving core's locks form a documented hierarchy; a thread may only
//! acquire a lock of **strictly higher rank** than any lock it already
//! holds.  `steady-lint` (rule `lock-order`) enforces this mechanically by
//! receiver name:
//!
//! | rank | locks                                                        |
//! |------|--------------------------------------------------------------|
//! | 10   | admission/dispatch: single-flight `table`, scheduler `lanes` injector (`steady_sched::sync`) |
//! | 20   | side tables: `bases`, prefetch-ledger `keys`                  |
//! | 25   | background-idle latch: the `pending` count its condvar waits on (`steady_sched::sync`) |
//! | 30   | cache `shard` locks (and any `cache.` method call)            |
//! | 40   | cache `seeded` class set (and `mark_class_seeded`)            |
//! | 50   | observability leaves: worker and caller-side trace `ring`s   |
//!
//! Ranks 10/25 for the scheduler's own locks live in `steady-sched`'s
//! `sync` facade (same cfg switch, same loom shim) and are listed here so
//! the hierarchy stays one table.  In particular: the single-flight
//! admission lock may call into the cache (10 → 30), the cache may consult
//! the seeded set while holding a shard (30 → 40), the lane injector bumps
//! the idle latch while holding `lanes` (10 → 25), and **never** the
//! reverse.  Trace rings are strict leaves: the hot-path push is a
//! `try_lock` that *drops* the record on contention, so nothing ever blocks
//! on one while holding another lock.

#[cfg(not(steady_loom))]
pub use parking_lot::{Condvar, Mutex, RwLock};

#[cfg(steady_loom)]
pub use loom::sync::{Condvar, Mutex, RwLock};

/// Atomic integers (modeled under `--cfg steady_loom`).
pub mod atomic {
    #[cfg(not(steady_loom))]
    pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[cfg(steady_loom)]
    pub use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
}

/// Unbounded mpsc channels (modeled under `--cfg steady_loom`).  Both
/// implementations are pinned to one timeout/disconnect contract by the
/// conformance suite in `shims/loom/tests/channel_conformance.rs`.
pub mod channel {
    #[cfg(not(steady_loom))]
    pub use crossbeam::channel::{
        unbounded, Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    #[cfg(steady_loom)]
    pub use loom::sync::mpsc::{
        unbounded, Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };
}
